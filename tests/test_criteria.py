from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import criteria as cr
from graphspectra import discrete as dc
from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import regularize as rg
from graphspectra.edges import Dirac
from graphspectra.graphs import Edge, MetricGraph


def build(g, alpha=0.0, lam0=None):
    coup = cp.delta_coupling(g, gr.alpha_map(g, alpha))
    reg = rg.build_regularization(g, lam0)
    return coup, reg, dc.build_discrete(g, coup, reg)


def test_finite_graph_self_adjoint_via_path_rule():
    g = gr.random_graph(1, 10)
    _, _, dl = build(g, alpha=-3.0)
    res = cr.check_self_adjointness(dl)
    assert res.verdict == cr.HOLDS
    assert res.ref == "sa.path-divergence"


def test_dirac_family_self_adjoint_via_degree_bound():
    g = gr.geometric_chain(1.0, 1.0, 12, model=Dirac(2.0))
    _, _, dl = build(g, alpha=1.0)
    res = cr.check_self_adjointness(dl)
    assert res.verdict == cr.HOLDS
    assert res.ref == "sa.bounded-degree"
    assert res.witness["bound"] == 4.0
    assert res.truncation_depth == 12


def test_dirac_gap_center_gate_tolerates_rounding():
    # c^2/2 is 0.6050000000000001 in floating point; an explicit 0.605 is
    # the same regularization point and must take the same branch.
    g = gr.geometric_chain(0.5, 0.5, 6, model=Dirac(1.1))
    for lam0 in (None, 0.605):
        _, _, dl = build(g, alpha=0.3, lam0=lam0)
        res = cr.check_self_adjointness(dl)
        assert (res.verdict, res.ref) == (cr.HOLDS, "sa.bounded-degree")


def test_finite_dirac_reports_degree_bound_in_witness():
    g = gr.star(3, lengths=1.0, model=Dirac(1.0))
    _, _, dl = build(g, alpha=0.5)
    res = cr.check_self_adjointness(dl)
    assert res.verdict == cr.HOLDS
    assert res.witness["bounded_degree"]["verdict"] == cr.HOLDS
    assert res.witness["bounded_degree"]["model_bound"] == 1.0


def test_geometric_laplacian_chain_inconclusive_with_partial_sums():
    g = gr.geometric_chain(0.5, 0.5, 10)
    _, _, dl = build(g)
    res = cr.check_self_adjointness(dl)
    assert res.verdict == cr.INCONCLUSIVE
    partial = res.witness["path_measure_partial_sum"]
    tail = res.witness["path_measure_tail_closed_form"]
    assert abs(partial - (1.0 - 2.0 ** -10)) < 1e-12
    assert abs(tail - 2.0 ** -10) < 1e-12
    assert abs(res.witness["path_measure_total"] - 1.0) < 1e-12


def test_constant_chain_family_diverges():
    g = gr.geometric_chain(1.0, 1.0, 8)
    _, _, dl = build(g)
    res = cr.check_self_adjointness(dl)
    assert res.verdict == cr.HOLDS
    assert res.ref == "sa.path-divergence"


def test_discreteness_finite_laplacian_holds():
    g = gr.star(3, lengths=[1.0, 0.5, 2.0])
    coup, reg, dl = build(g, alpha=1.0)
    res = cr.check_discreteness(dl, g, reg)
    assert res.verdict == cr.HOLDS
    assert res.witness["trace_class_decoupled"]["verdict"] == cr.HOLDS


def test_discreteness_dirac_fails_trace_class():
    g = gr.star(3, lengths=1.0, model=Dirac(1.0))
    coup, reg, dl = build(g)
    res = cr.check_discreteness(dl, g, reg)
    assert res.verdict == cr.FAILS
    entry = res.witness["trace_class_decoupled"]
    assert entry["verdict"] == cr.FAILS
    assert "harmonic" in entry["reason"]


def test_discreteness_disconnected_fails_connectivity():
    g = MetricGraph(("a", "b", "c", "d"),
                    (Edge("e1", "a", "b", 1.0), Edge("e2", "c", "d", 1.0)))
    coup, reg, dl = build(g)
    res = cr.check_discreteness(dl, g, reg)
    assert res.verdict == cr.FAILS
    assert res.witness["connectivity"]["verdict"] == cr.FAILS
    assert res.witness["connectivity"]["components"] == [["a", "b"], ["c", "d"]]

    # Components whose labels interleave come in the order of their first
    # index, each sorted by label.
    g = MetricGraph(("a", "b", "c", "d", "e", "f"),
                    (Edge("ad", "a", "d", 1.0), Edge("bc", "b", "c", 0.5),
                     Edge("ef", "e", "f", 2.0)))
    coup, reg, dl = build(g)
    res = cr.check_discreteness(dl, g, reg)
    assert res.witness["connectivity"] == {
        "verdict": cr.FAILS, "components": [["a", "d"], ["b", "c"], ["e", "f"]]}


def test_connectivity_components_match_a_graph_search():
    # Random forests on shuffled vertex names, against a depth-first search
    # over the positive weights.
    rng = np.random.default_rng(11)
    for _ in range(5):
        names = [f"v{k:02d}" for k in rng.permutation(60)]
        cuts = np.sort(rng.choice(np.arange(2, 58, 2), size=4, replace=False))
        edges = []
        for part in np.split(np.array(names), cuts):
            for k in range(1, len(part)):
                edges.append(Edge(f"e{len(edges)}", part[k], part[rng.integers(0, k)],
                                  float(rng.uniform(0.5, 2.0))))
        g = MetricGraph(tuple(sorted(names)), tuple(edges))
        coup, reg, dl = build(g)
        adj = {k: set() for k in range(dl.size)}
        for (i, j), val in dl.b.items():
            if val > 0:
                adj[i].add(j)
                adj[j].add(i)
        seen, want = set(), []
        for start in range(dl.size):
            if start not in seen:
                comp, stack = [], [start]
                while stack:
                    x = stack.pop()
                    if x not in seen:
                        seen.add(x)
                        comp.append(x)
                        stack.extend(adj[x] - seen)
                want.append(sorted(dl.labels[k] for k in comp))
        got = cr.check_discreteness(dl, g, reg).witness["connectivity"]["components"]
        assert got == want and len(want) == 5


def test_discreteness_geometric_chain_closed_form():
    g = gr.geometric_chain(0.5, 0.5, 10)
    coup, reg, dl = build(g)
    res = cr.check_discreteness(dl, g, reg)
    assert res.verdict == cr.HOLDS
    summ = res.witness["summability"]
    assert abs(summ["m_partial_sum"] - (1.0 - 2.0 ** -10)) < 1e-12
    assert abs(summ["m_tail_closed_form"] - 2.0 ** -10) < 1e-12
    assert abs(summ["m_total"] - 1.0) < 1e-12
    assert abs(summ["inv_b_total"] - 1.0) < 1e-12
    assert math.isfinite(res.witness["trace_class_decoupled"]["family_length_sq_tail"])


def test_semibounded_laplacian_interval():
    g = gr.interval(1.0)
    coup, reg, _ = build(g)
    res = cr.check_semibounded(g, coup, reg, -0.5)
    assert res.verdict == cr.HOLDS
    res0 = cr.check_semibounded(g, coup, reg, -1e-6)
    assert res0.verdict == cr.HOLDS  # Neumann bottom is 0


def test_semibounded_large_positive_alpha_near_zero():
    g = gr.interval(1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 50.0))
    reg = rg.build_regularization(g)
    res = cr.check_semibounded(g, coup, reg, -1e-9)
    assert res.verdict == cr.HOLDS


def test_semibounded_fails_above_bottom():
    g = gr.interval(1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, -2.0))
    reg = rg.build_regularization(g)
    res = cr.check_semibounded(g, coup, reg, -1e-3)
    assert res.verdict == cr.FAILS  # delta well pushes the bottom below -1e-3


def test_semibounded_dirac_inconclusive():
    g = gr.interval(1.0, model=Dirac(1.0))
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    reg = rg.build_regularization(g)
    res = cr.check_semibounded(g, coup, reg, -1.0)
    assert res.verdict == cr.INCONCLUSIVE


def test_semibounded_rejects_bad_certificate_point():
    g = gr.interval(1.0)
    coup, reg, _ = build(g)
    with pytest.raises(ValueError):
        cr.check_semibounded(g, coup, reg, 20.0)


def test_bounded_triplet_cases():
    rng = np.random.default_rng(4)
    g = gr.random_graph(3, 10, length_range=(0.5, 2.0))
    assert cr.check_bounded_triplet_case(g).verdict == cr.HOLDS
    chain = gr.geometric_chain(0.5, 0.5, 10)
    res = cr.check_bounded_triplet_case(chain)
    assert res.verdict == cr.FAILS
    assert res.witness["inf_length"] == 0.0
    assert cr.check_bounded_triplet_case(gr.star(3, lengths=1.0)).verdict == cr.HOLDS


def test_mtilde_scan_laplacian_supports_dirac_does_not():
    g = gr.interval(1.0)
    coup, reg, _ = build(g)
    res = cr.check_mtilde_divergence(g, reg)
    assert res.verdict == cr.INCONCLUSIVE
    assert res.witness["evidence_supports"] is True
    gd = gr.interval(1.0, model=Dirac(1.0))
    coupd, regd, _ = build(gd)
    resd = cr.check_mtilde_divergence(gd, regd)
    assert resd.verdict == cr.INCONCLUSIVE
    assert resd.witness["evidence_supports"] is False


def test_semibounded_consistent_with_oracle_bottom():
    from graphspectra import spectra as sp
    fixtures = [
        (gr.interval(1.0), 0.0, -0.5),
        (gr.interval(1.0), -2.0, -1.5),
        (gr.star(3, lengths=[1.0, 0.7, 1.3]), [1.0, -1.5, 0.0, 0.5], -1.2),
    ]
    for g, alpha, cert_point in fixtures:
        coup = cp.delta_coupling(g, gr.alpha_map(g, alpha))
        reg = rg.build_regularization(g)
        res = cr.check_semibounded(g, coup, reg, cert_point)
        if res.verdict != cr.HOLDS:
            continue
        oracle = sp.oracle_eigenvalues(g, coup, (cert_point - 1.0, 5.0))
        assert oracle.roots
        assert min(oracle.values) >= cert_point - 1e-6


def test_defect_indicator_on_truncations():
    # When self-adjointness holds via the degree bound, truncated matrices
    # keep min singular value of (Lmin -+ i) away from zero.
    for depth in (4, 8, 16):
        g = gr.geometric_chain(1.0, 1.0, depth, model=Dirac(1.0))
        coup = cp.delta_coupling(g, gr.alpha_map(g, 0.3))
        reg = rg.build_regularization(g)
        lm = np.asarray(dc.lmin_matrix(g, coup, reg))
        for sign in (1j, -1j):
            sv = np.linalg.svd(lm - sign * np.eye(lm.shape[0]), compute_uv=False)
            assert sv[-1] > 1e-3


def test_results_serialize():
    import json
    g = gr.geometric_chain(0.5, 0.5, 6)
    coup, reg, dl = build(g)
    for res in [cr.check_self_adjointness(dl),
                cr.check_discreteness(dl, g, reg),
                cr.check_bounded_triplet_case(g),
                cr.check_mtilde_divergence(g, reg)]:
        json.dumps(res.to_json_dict())


def test_mtilde_scan_reports_samples_on_poles():
    # lambda = -1e6 lies within the pole guard of a decoupled eigenvalue of
    # edge e060; the other edges and samples are reported as usual.
    g = gr.random_graph(39, 60, model=Dirac(1.0))
    res = cr.check_mtilde_divergence(g, rg.build_regularization(g))
    assert res.witness["evidence_supports"] is False
    on_poles = {eid: entry["samples_on_poles"]
                for eid, entry in res.witness["per_edge"].items() if "samples_on_poles" in entry}
    assert on_poles == {"e060": [-1e6]}
    entry = res.witness["per_edge"]["e060"]
    assert len(entry["max_eigenvalues"]) == 5
    assert entry["strictly_decreasing"] is False


def test_mtilde_scan_stacked_eigensolve_matches_per_sample_max():
    g = gr.random_graph(2, 20, model=Dirac(1.0))
    reg = rg.build_regularization(g)
    res = cr.check_mtilde_divergence(g, reg)
    for e in g.edges:
        want = [float(np.max(np.linalg.eigvalsh(
            rg.regularized_weyl(g.model, e.length, -10.0 ** k, reg, edge_id=e.id))))
            for k in range(1, 7)]
        assert res.witness["per_edge"][e.id]["max_eigenvalues"] == want


def test_complex_weights_fail_both_preconditions():
    # A custom coupling with a complex basis gives complex weights b(v, w),
    # outside both criteria: each reports its precondition.
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    coup = cp.custom_coupling(g, {"center": ([[1.0, 1j, 0.5]], [[0.3]])})
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, coup, reg)
    assert not dl.criteria_applicable
    results = [cr.check_self_adjointness(dl), cr.check_discreteness(dl, g, reg)]
    assert [(r.verdict, r.ref) for r in results] == [(cr.FAILS, "sa.precondition"),
                                                     (cr.FAILS, "disc.precondition")]
    for r in results:
        assert r.witness == {"reason": "weights b(v,w) must be real and >= 0"}


def _mtilde_reference(g, reg):
    """The renormalized-divergence witness from one scalar evaluation and
    one eigensolve per edge and sample."""
    per_edge, supports = {}, True
    for e in g.edges:
        model = gr.edge_model_for(g.model, e)
        tops, on_poles = [], []
        for k in range(1, 7):
            try:
                mt = rg.regularized_weyl(model, e.length, -10.0 ** k, reg, edge_id=e.id)
            except em.PoleOfWeylError:
                on_poles.append(-10.0 ** k)
                continue
            tops.append(float(np.linalg.eigvalsh(mt)[-1]))
        decreasing = not on_poles and all(b < a for a, b in zip(tops, tops[1:]))
        per_edge[e.id] = {"max_eigenvalues": tops, "strictly_decreasing": decreasing}
        if on_poles:
            per_edge[e.id]["samples_on_poles"] = on_poles
        supports = supports and decreasing and tops[-1] < 0
    return {"evidence_supports": supports, "per_edge": per_edge}


@pytest.mark.parametrize("g,lam0", [
    (gr.random_graph(4, 40), None),
    (gr.geometric_chain(0.5, 0.5, 40), None),
    (gr.random_graph(39, 60, model=Dirac(1.0)), None),  # e060 has a sample on a pole
    (gr.random_graph(5, 12, model=Dirac(2.5)), 1.0),
    (MetricGraph(("a", "b"), (Edge("h", "a", None, math.inf), Edge("e", "a", "b", 0.7))), -2.5),
], ids=["laplacian", "chain", "dirac", "dirac-off-center", "half-line"])
def test_mtilde_witness_equals_the_per_edge_scalar_reference(g, lam0):
    reg = rg.build_regularization(g, lam0)
    res = cr.check_mtilde_divergence(g, reg)
    assert repr(res.witness) == repr(_mtilde_reference(g, reg))  # -0.0 counts
