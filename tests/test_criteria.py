from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import criteria as cr
from graphspectra import discrete as dc
from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import regularize as rg
from graphspectra.edges import Dirac, Laplacian
from graphspectra.graphs import Edge, MetricGraph
from test_edges import kernel_bounds

_EPS = np.finfo(float).eps


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


# The Dirichlet resolvent trace sum_n 1/((n pi / l)^2 - lambda0) of an edge
# of each length in TRACE_LENGTHS, per lambda0: l^2 (y coth y - 1) / (2 y^2),
# y = l sqrt(-lambda0) (l^2 / 6 at 0), from the doubles l and lambda0 with
# mpmath at 60 digits, printed to 40.  y runs from 0 to 1e7 and crosses
# 0.1 (where the check switches from the series to the closed form) at
# lambda0 = -99, -100, -101 on l = 1e-2, among others.
TRACE_LENGTHS = [1e-12, 1e-6, 1e-5, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3]
TRACES = {
    0.0: """
        1.666666666666666599622158764185385231754e-25 1.666666666666666515827039419620865698269e-13
        1.66666666666666693934351304677104297244e-11 1.666666666666666736055605705738951165367e-7
        1.666666666666666736055605705738951165367e-5 1.666666666666666851703837437526095206418e-3
        1.666666666666666666666666666666666666667e-1 1.666666666666666666666666666666666666667e+1
        1.666666666666666666666666666666666666667e+5""".split(),
    -1e-06: """
        1.666666666666666599622158764185399323881e-25 1.666666666666666515715928308509754612308e-13
        1.666666666666666928232401935659928834257e-11 1.666666666666555624944494605205626765302e-7
        1.666666666655555624944600414311272005515e-5 1.66666666555555574165092718712148955045e-3
        1.666666555555566137565084393172871254072e-1 1.666655555661374603185794755142359933063e+1
        1.56517642749665652237757341731500259743e+5""".split(),
    -1.0: """
        1.666666666666666599622158653074274120746e-25 1.666666666666555404715928319111877119467e-13
        1.666666666655555828232507752130059623932e-11 1.666666555555566206954009152401321713951e-7
        1.666655555661374672573305832397040063068e-5 1.665556612699480692054331168150716162328e-3
        1.56517642749665651818080623465423916456e-1 4.500000020611536266869120920140401562301
        4.995e+2""".split(),
    -99.0: """
        1.666666666666666599622147764185385231757e-25 1.666666666655666515827143135897662036844e-13
        1.666666665566666940380655542953691975064e-11 1.66665566677037999500781453892493059392e-7
        1.665567702783778193546067882049321563265e-5 1.566104647370416698411240789515176391897e-3
        4.520138594145336574662949427530588197844e-2 4.974684025791009872396362732329323258475e-1
        5.024684025791009872396362732329323258475e+1""".split(),
    -100.0: """
        1.666666666666666599622147653074274120641e-25 1.666666666655555404716034130626768664709e-13
        1.666666665555555829290602629233661017834e-11 1.666655555661374672573305832397040063068e-7
        1.665556612699480576560077089665865072416e-5 1.565176427496656681653825948027166475838e-3
        4.500000020611536266869120920140401562301e-2 4.95e-1
        4.9995e+1""".split(),
    -101.0: """
        1.666666666666666599622147541963163009532e-25 1.666666666655444293604925146519896455959e-13
        1.666666665544444718200761355724635351715e-11 1.66665544455239051352505333879200243481e-7
        1.665545522826189531107476523172356031119e-5 1.564249798606572802669046579098207623648e-3
        4.48013646466159994148847695774891822113e-2 4.925681000554896173375873719187909003438e-1
        4.974690901544995183276863818197809993537e+1""".split(),
    -10000.0: """
        1.666666666666666599621047653074274120733e-25 1.666666665555555405774129566772114439831e-13
        1.666666555555566410241889388382973533509e-11 1.665556612699480576560077089665865072416e-7
        1.565176427496656579483188627169086087804e-5 4.500000020611536544424855337197459946197e-4
        4.95e-3 4.995e-2
        4.99995""".split(),
    -100000000.0: """
        1.66666666666666658851104765307427512039e-25 1.666655555661374452347675885215030467073e-13
        1.665556612699480779577320587002520040651e-11 4.500000020611536370952521326536798456259e-8
        4.950000000000000104083408558608425664715e-7 4.995000000000000277555756156289135105908e-6
        4.9995e-5 4.99995e-4
        4.9999995e-2""".split(),
}


@pytest.mark.parametrize("lam0", list(TRACES))
def test_dirichlet_traces_match_40_digit_values(lam0):
    g = gr.star(len(TRACE_LENGTHS), lengths=TRACE_LENGTHS)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        coup, reg, dl = build(g, lam0=lam0)
        entry = cr.check_discreteness(dl, g, reg).witness["trace_class_decoupled"]
    got = [entry["per_edge"][e.id] for e in g.edges]
    assert entry["verdict"] == cr.HOLDS and len(entry["per_edge"]) == len(got)
    assert all(abs(x - float(w)) <= 1e-13 * float(w) for x, w in zip(got, TRACES[lam0]))
    assert entry["sum"] == pytest.approx(math.fsum(got), rel=4 * _EPS)
    if lam0 == 0.0:
        assert got == pytest.approx([ell ** 2 / 6 for ell in TRACE_LENGTHS], rel=2 * _EPS)


def test_half_line_graph_fails_trace_class():
    g = MetricGraph(("a", "b"), (Edge("h", "a", None, math.inf), Edge("e", "a", "b", 0.7)))
    coup, reg, dl = build(g, alpha=0.3, lam0=-2.5)
    entry = cr.check_discreteness(dl, g, reg).witness["trace_class_decoupled"]
    assert entry == {"verdict": cr.FAILS,
                     "reason": "half-line edges have continuous decoupled spectrum"}


def test_growing_chain_fails_trace_class_and_bounded_lengths():
    # Lengths 1, 2, 4, ...: the squared lengths do not sum, and the lengths
    # are unbounded.
    g = gr.geometric_chain(1.0, 2.0, 5)
    coup, reg, dl = build(g)
    res = cr.check_discreteness(dl, g, reg)
    entry = res.witness["trace_class_decoupled"]
    assert res.verdict == cr.FAILS and entry["verdict"] == cr.FAILS
    assert entry["reason"] == "sum of squared lengths diverges"
    assert entry["family_length_sq_tail"] == math.inf
    res = cr.check_bounded_triplet_case(g)
    assert res.verdict == cr.FAILS
    assert res.witness == {"inf_length": 1.0, "sup_length": math.inf}


def test_chain_off_its_canonical_point_is_an_unknown_family():
    g = gr.geometric_chain(0.5, 0.5, 6)
    _, _, dl = build(g, lam0=-1.0)
    res = cr.check_self_adjointness(dl)
    assert (res.verdict, res.ref, res.truncation_depth) == (cr.INCONCLUSIVE, "sa.unknown-family", 6)


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


def test_semibounded_short_edges_do_not_hold():
    # geometric_chain(0.5, 0.5, d) with alpha = -0.2 has an eigenvalue near
    # -51.478, so -1 is no lower bound.  max |evs| grows like 1 / l_min,
    # and with it the eigensolve's rounding: at depth 40 the least
    # eigenvalue, -0.092, still lies below it, at depth 60 it does not.
    verdicts = {}
    for depth in (10, 20, 40, 60):
        g = gr.geometric_chain(0.5, 0.5, depth)
        coup, reg, _ = build(g, alpha=-0.2)
        verdicts[depth] = cr.check_semibounded(g, coup, reg, -1.0)
    assert [verdicts[d].verdict for d in (10, 20, 40)] == [cr.FAILS] * 3
    assert verdicts[40].witness["min_eigenvalue"] == pytest.approx(-0.0920, abs=5e-5)
    assert verdicts[60].verdict != cr.HOLDS


def test_criteria_verdicts_on_a_random_binary_tree():
    # The problem of the criteria benchmark: binary_tree(7), lengths in
    # [0.1, 2] and alpha in [0, 1].
    g = gr.binary_tree(7)
    rng = np.random.default_rng([71, 20180611])
    lengths = rng.uniform(0.1, 2.0, len(g.edges))
    g = MetricGraph(g.vertices, tuple(Edge(e.id, e.source, e.target, float(ell))
                                      for e, ell in zip(g.edges, lengths)))
    alpha = dict(zip(sorted(g.vertices), rng.uniform(0.0, 1.0, len(g.vertices)).tolist()))
    coup = cp.delta_coupling(g, alpha)
    reg = rg.build_regularization(g, 0.0)
    dl = dc.build_discrete(g, coup, reg)
    verdicts = [cr.check_self_adjointness(dl).verdict, cr.check_discreteness(dl, g, reg).verdict,
                cr.check_bounded_triplet_case(g).verdict, cr.check_mtilde_divergence(g, reg).verdict,
                cr.check_semibounded(g, coup, reg, -1.0).verdict]
    assert verdicts == [cr.HOLDS, cr.HOLDS, cr.HOLDS, cr.INCONCLUSIVE, cr.HOLDS]


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
    _, bounds = _mtilde_reference(g, reg)
    for e in g.edges:
        want = [float(np.max(np.linalg.eigvalsh(
            rg.regularized_weyl(g.model, e.length, -10.0 ** k, reg, edge_id=e.id))))
            for k in range(1, 7)]
        got = res.witness["per_edge"][e.id]["max_eigenvalues"]
        assert len(got) == len(want)
        assert all(abs(x - y) <= b for x, y, b in zip(got, want, bounds[e.id]))


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
    one eigensolve per edge and sample, and per edge the bound on each max
    eigenvalue: twice the two kernels' bounds on M (a max-entry change moves
    a 2x2 eigenvalue by at most twice it) over ||M'(lambda0)||, plus the
    eigensolves' rounding."""
    per_edge, supports, bounds = {}, True, {}
    for e in g.edges:
        model = gr.edge_model_for(g.model, e)
        tops, on_poles, bounds[e.id] = [], [], []
        for k in range(1, 7):
            lam = -10.0 ** k
            try:
                mt = rg.regularized_weyl(model, e.length, lam, reg, edge_id=e.id)
            except em.PoleOfWeylError:
                on_poles.append(lam)
                continue
            evs = np.linalg.eigvalsh(mt)
            tops.append(float(evs[-1]))
            bound_m, _ = kernel_bounds(model, e.length, lam, em.weyl(model, e.length, lam),
                                       em.weyl_derivative(model, e.length, lam))
            bounds[e.id].append(4 * bound_m / reg.norm_prime[e.id] + 8 * _EPS * np.abs(evs).max())
        decreasing = not on_poles and all(b < a for a, b in zip(tops, tops[1:]))
        per_edge[e.id] = {"max_eigenvalues": tops, "strictly_decreasing": decreasing}
        if on_poles:
            per_edge[e.id]["samples_on_poles"] = on_poles
        supports = supports and decreasing and tops[-1] < 0
    return {"evidence_supports": supports, "per_edge": per_edge}, bounds


@pytest.mark.parametrize("g,lam0,noisy", [
    (gr.random_graph(4, 40), None, ()),
    (gr.geometric_chain(0.5, 0.5, 40), None, [f"e{n}" for n in range(29, 40)]),
    (gr.random_graph(39, 60, model=Dirac(1.0)), None, ()),  # e060 has a sample on a pole
    (gr.random_graph(5, 12, model=Dirac(2.5)), 1.0, ()),
    (MetricGraph(("a", "b"), (Edge("h", "a", None, math.inf), Edge("e", "a", "b", 0.7))), -2.5,
     ()),
], ids=["laplacian", "chain", "dirac", "dirac-off-center", "half-line"])
def test_mtilde_witness_equals_the_per_edge_scalar_reference(g, lam0, noisy):
    # The verdicts, the samples on poles and the layout exactly, each max
    # eigenvalue within the kernels' bound.  On the chain's edges shorter
    # than 1e-9 (``noisy``) the reference subtracts two matrices of size
    # 1/l and keeps rounding noise (0.0 at the first samples), so it is not
    # strictly decreasing there; their flags and evidence_supports are
    # stated here instead: the 40-digit witness of each, about lambda/3,
    # decreases (test_mtilde_witness_keeps_its_digits_on_short_edges).
    reg = rg.build_regularization(g, lam0)
    got = cr.check_mtilde_divergence(g, reg).witness
    want, bounds = _mtilde_reference(g, reg)
    if noisy:
        assert [want["per_edge"][eid]["strictly_decreasing"] for eid in noisy] == [False] * 11
        for eid in noisy:
            want["per_edge"][eid]["strictly_decreasing"] = True
        want["evidence_supports"] = True
    tops = {eid: (got["per_edge"][eid].pop("max_eigenvalues"), entry.pop("max_eigenvalues"))
            for eid, entry in want["per_edge"].items()}
    assert repr(got) == repr(want)
    for eid, (a, b) in tops.items():
        assert len(a) == len(b) and all(abs(x - y) <= t for x, y, t in zip(a, b, bounds[eid]))


@pytest.mark.parametrize("model,want,rtol", [
    # M(lambda) and M(lambda0) are of order 1/l = 1.3e8 and their
    # difference of order l |lambda|, so subtracting them left rounding
    # noise (-8, -32, -328, -3328 here).  The values are
    # 2 (2 - y coth(y / 2)) / l^2, y = l sqrt(-lambda).
    (Laplacian(), [-3.333333333333333302493804871523429840281,
                   -33.33333333333333024938048715234335087191,
                   -333.3333333333330249380487152347019309900,
                   -3333.333333333302493804871523837036897932], 1e-6),
    # At lambda0 = 1/2, rho0 = 1 and q0 = r0 = 1: M is
    # rho [[-q, -i r], [i r, -q]] / l, so M(lambda) - M(lambda0) has the
    # largest eigenvalue (2 - rho (q + r)) / l (rho = 2 / (2 lambda + 1) < 0
    # here), and ||M'(lambda0)|| = 2 / l + l / 2, with q = z cot z,
    # r = z / sin z, z = l k, k^2 = lambda^2 - 1/4.  Both terms of the Dirac
    # branch of edges._change count: rho's change gives about 1 - rho, the
    # change of M_L the digits past 1e-12 at the far samples.
    (Dirac(1.0), [1.105263157894736788420136638191439370257,
                  1.010050251256280937456863296886934394106,
                  1.001000500250120429658474209750666017731,
                  1.000100005000203746268571516372664262971,
                  1.000010000049537650131102828485900781169,
                  1.000000999995874059761977992160370516470], 1e-12),
], ids=["laplacian", "dirac"])
def test_mtilde_witness_keeps_its_digits_on_short_edges(model, want, rtol):
    # Edge e26 of the depth-40 chain has length 2**-27; the values are
    # closed forms at 40 digits.
    g = gr.geometric_chain(0.5, 0.5, 40, model=model)
    res = cr.check_mtilde_divergence(g, rg.build_regularization(g))
    got = res.witness["per_edge"]["e26"]
    assert res.verdict == cr.INCONCLUSIVE and got["strictly_decreasing"]
    assert all(abs(x - y) <= rtol * abs(y) for x, y in zip(got["max_eigenvalues"], want))
