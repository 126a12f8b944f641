from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import discrete as dc
from graphspectra import graphs as gr
from graphspectra import regularize as rg
from graphspectra.edges import Dirac, Laplacian
from graphspectra.graphs import Edge, MetricGraph


def dirac_star(alphas=(2.0, -1.0, 1.0, 0.0), lengths=(1.0, 1.0, 1.0), c=1.0):
    g = gr.star(3, lengths=list(lengths), model=Dirac(c))
    coup = cp.delta_coupling(g, gr.alpha_map(g, list(alphas)))
    reg = rg.build_regularization(g)
    return g, coup, reg


def test_non_hermitian_pairing_raises():
    g, coup, reg = dirac_star()
    blocks = dict(reg.m_at_lambda0)
    block = blocks["e00"].copy()
    block[0, 1] += 0.5
    blocks["e00"] = block
    with pytest.raises(AssertionError, match="not Hermitian"):
        dc.build_discrete(g, coup, dataclasses.replace(reg, m_at_lambda0=blocks))


def test_dirac_delta_weights_are_inverse_lengths():
    g, coup, reg = dirac_star(lengths=(1.0, 0.5, 2.0))
    dl = dc.build_discrete(g, coup, reg)
    idx = {lab: i for i, lab in enumerate(dl.labels)}
    assert abs(dl.weight(idx["center"], idx["leaf00"]) - 1.0) < 1e-12
    assert abs(dl.weight(idx["center"], idx["leaf01"]) - 2.0) < 1e-12
    assert abs(dl.weight(idx["center"], idx["leaf02"]) - 0.5) < 1e-12
    assert dl.weight(idx["leaf00"], idx["leaf01"]) == 0.0


def test_dirac_delta_potential_is_alpha():
    alphas = (2.0, -1.0, 1.0, 0.0)
    g, coup, reg = dirac_star(alphas)
    dl = dc.build_discrete(g, coup, reg)
    expected = dict(zip(sorted(g.vertices), alphas))
    for lab, c_val in zip(dl.labels, dl.c):
        assert abs(c_val - expected[lab]) < 1e-12


def test_dirac_delta_measure_sums_weights():
    g, coup, reg = dirac_star(lengths=(1.0, 0.5, 2.0))
    dl = dc.build_discrete(g, coup, reg)
    idx = {lab: i for i, lab in enumerate(dl.labels)}
    expected_center = sum(reg.norm_prime[e.id] for e in g.edges)
    assert abs(dl.m[idx["center"]] - expected_center) < 1e-12


def test_laplacian_delta_values():
    g = gr.star(3, lengths=[1.0, 0.5, 2.0])
    coup = cp.delta_coupling(g, gr.alpha_map(g, [3.0, 0.0, 1.0, -2.0]))
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, coup, reg)
    idx = {lab: i for i, lab in enumerate(dl.labels)}
    assert abs(dl.weight(idx["center"], idx["leaf00"]) - 1.0) < 1e-12
    assert abs(dl.weight(idx["center"], idx["leaf01"]) - 2.0) < 1e-12
    assert abs(dl.m[idx["center"]] - (1.0 + 0.5 + 2.0) / 2) < 1e-12
    assert np.allclose(dl.c, [3.0, 0.0, 1.0, -2.0], atol=1e-12)


def test_weighted_degree_star_value():
    g, coup, reg = dirac_star(alphas=(0.0, 0.0, 0.0, 0.0))
    dl = dc.build_discrete(g, coup, reg)
    deg = dc.weighted_degree(dl)
    idx = {lab: i for i, lab in enumerate(dl.labels)}
    assert abs(deg[idx["center"]] - 6 / 13) < 1e-12


def test_weighted_degree_bounded_by_c_squared():
    rng = np.random.default_rng(2)
    for seed in range(10):
        c = float(rng.uniform(0.5, 3.0))
        g = gr.random_graph(seed, int(rng.integers(3, 20)), model=Dirac(c))
        coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
        reg = rg.build_regularization(g)
        dl = dc.build_discrete(g, coup, reg)
        assert float(np.max(dc.weighted_degree(dl))) <= c * c + 1e-12


def test_lmin_matrix_entries():
    g, coup, reg = dirac_star(lengths=(1.0, 0.5, 2.0))
    dl = dc.build_discrete(g, coup, reg)
    lm = dc.lmin_matrix(g, coup, reg)
    assert np.linalg.norm(lm - lm.conj().T) < 1e-12
    idx = {lab: i for i, lab in enumerate(dl.labels)}
    i, j = idx["center"], idx["leaf00"]
    expected = -1.0 / math.sqrt(dl.m[i] * dl.m[j])  # -(1/l)/sqrt(m m)
    assert abs(lm[i, j] - expected) < 1e-12
    diag = (dl.c[i] + dl.row_sum(i)) / dl.m[i]
    assert abs(lm[i, i] - diag) < 1e-12
    k = idx["leaf01"]
    assert lm[j, k] == 0.0


def test_unitary_equivalence_residual_small():
    g, coup, reg = dirac_star()
    dl = dc.build_discrete(g, coup, reg)
    lm = dc.lmin_matrix(g, coup, reg)
    # indicator vectors
    vecs = [np.eye(dl.size)[k] for k in range(dl.size)]
    assert dc.unitary_equivalence_residual(dl, lm, vectors=vecs) < 1e-12
    assert dc.unitary_equivalence_residual(dl, lm, trials=100, seed=1) < 1e-12


def test_unitary_equivalence_negative_control():
    from dataclasses import replace
    g, coup, reg = dirac_star()
    dl = dc.build_discrete(g, coup, reg)
    lm = dc.lmin_matrix(g, coup, reg)
    bad = replace(dl, m=dl.m * 1.01)
    assert dc.unitary_equivalence_residual(bad, lm, trials=20) > 1e-6


def test_unitary_equivalence_scale_relative_on_short_edges():
    # Decaying lengths inflate the matrix entries like 1/length^2; the
    # residual stays at machine scale relative to the matrix norm.
    g = gr.geometric_chain(0.5, 0.5, 10)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, coup, reg)
    lm = dc.lmin_matrix(g, coup, reg)
    scale = float(np.max(np.abs(np.asarray(lm))))
    res = dc.unitary_equivalence_residual(dl, lm, trials=50, seed=2)
    assert res < 1e-12 * scale


def test_quadratic_form_identity_random():
    g = gr.random_graph(5, 12)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.7))
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, coup, reg)
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = rng.normal(size=dl.size) + 1j * rng.normal(size=dl.size)
        lhs = np.real(np.sum(dl.m * dc.apply_discrete(dl, f) * np.conj(f)))
        assert abs(lhs - dc.quadratic_form(dl, f)) < 1e-10 * max(1.0, abs(lhs))


def test_nonnegative_form_when_weights_and_potential_nonnegative():
    g = gr.star(4, lengths=0.8)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 2.0))
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, coup, reg)
    assert all(v >= 0 for v in dl.b.values())
    assert np.all(dl.c >= -1e-12)
    rng = np.random.default_rng(8)
    for _ in range(20):
        f = rng.normal(size=dl.size) + 1j * rng.normal(size=dl.size)
        assert dc.quadratic_form(dl, f) >= -1e-10


def test_delta_flavors_give_applicable_weights():
    for model in [None, Dirac(1.0)]:
        g = gr.star(3, lengths=1.0) if model is None else gr.star(3, lengths=1.0, model=model)
        coup = cp.delta_coupling(g, gr.alpha_map(g, -1.0))
        reg = rg.build_regularization(g)
        dl = dc.build_discrete(g, coup, reg)
        assert dl.criteria_applicable


def test_halfline_edges_enter_measure():
    g = MetricGraph(("c", "b"),
                    (Edge("e", "c", "b", 1.0), Edge("h", "c", None, math.inf)))
    coup = cp.delta_coupling(g, {"c": 0.0, "b": 0.0})
    reg = rg.build_regularization(g, -1.0)
    dl = dc.build_discrete(g, coup, reg)
    idx = {lab: i for i, lab in enumerate(dl.labels)}
    expected = reg.norm_prime["e"] + reg.norm_prime["h"]
    assert abs(dl.m[idx["c"]] - expected) < 1e-12
    assert dl.criteria_applicable


def test_json_export_shape():
    g, coup, reg = dirac_star()
    dl = dc.build_discrete(g, coup, reg)
    payload = dc.discrete_to_json_dict(dl)
    assert set(payload) == {"indices", "m", "b", "c", "criteria_applicable"}
    assert payload["indices"] == list(dl.labels)
    assert all(len(t) == 3 for t in payload["b"])
    import json
    json.dumps(payload)  # must be serializable


def test_discrete_pipeline_memory_grows_with_the_edges_not_their_square():
    # binary_tree(10) has 2,047 indices: one dense n x n complex matrix
    # would take 64 MiB; the sparse pairing needs O(E).
    import scipy.sparse  # noqa: F401  (imported before tracing, not counted)

    g = gr.binary_tree(10)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.5))
    reg = rg.build_regularization(g)
    tracemalloc.start()
    try:
        dc.build_discrete(g, coup, reg)
        dc.lmin_matrix(g, coup, reg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_array_operations_match_the_loops():
    # The loops over the weights dict are the reference; the array forms
    # sum in another order, so allow 1e-14 of the largest entry.
    g = gr.binary_tree(6)  # 127 indices: lmin_matrix returns CSR
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.5))
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, coup, reg)
    rng = np.random.default_rng(4)
    f = rng.normal(size=dl.size) + 1j * rng.normal(size=dl.size)
    deg, applied, energy = np.zeros(dl.size), dl.c * f, 0.0
    for (i, j), val in dl.b.items():
        deg[i] += val
        deg[j] += val
        applied[i] += val * (f[i] - f[j])
        applied[j] += val * (f[j] - f[i])
        energy += val * abs(f[i] - f[j]) ** 2
    energy += np.sum(dl.c * np.abs(f) ** 2)
    for got, want in ((dc.weighted_degree(dl), deg / dl.m),
                      (dc.apply_discrete(dl, f), applied / dl.m)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))
    assert abs(dc.quadratic_form(dl, f) - energy) <= 1e-14 * abs(energy)

    import scipy.sparse

    lm = dc.lmin_matrix(g, coup, reg)
    assert scipy.sparse.issparse(lm)
    assert dc.unitary_equivalence_residual(dl, lm) < 1e-12


@pytest.mark.parametrize("model", [Laplacian(), Dirac(1.7)])
def test_discrete_data_carry_the_graph_model(model):
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=model)
    reg = rg.build_regularization(g)
    dl = dc.build_discrete(g, cp.delta_coupling(g, gr.alpha_map(g, 0.5)), reg)
    assert dl.model is g.model
