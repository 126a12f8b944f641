from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import regularize as rg
from graphspectra.edges import Dirac, Laplacian
from graphspectra.graphs import Edge, MetricGraph
from test_edges import kernel_bounds

_EPS = np.finfo(float).eps


def test_dirac_star_weights():
    g = gr.star(3, lengths=1.0, model=Dirac(1.0))
    reg = rg.build_regularization(g)
    assert reg.lambda0 == 0.5
    for e in g.edges:
        assert abs(reg.norm_prime[e.id] - 13 / 6) < 1e-12


def test_dirac_deep_gap_weights():
    # 60-digit reference for M'_11(5) at c = 137, l = 7; M' is diagonal there
    # up to csch(l kappa) ~ 1e-208, so the norm is M'_11.
    g = gr.star(3, lengths=[7.0] * 3, model=Dirac(137.0))
    reg = rg.build_regularization(g, 5.0)
    for e in g.edges:
        assert abs(reg.norm_prime[e.id] - 0.014590768352417067) <= 1e-12 * 0.0146


def test_laplacian_weight_is_half_length():
    g = gr.interval(1.0)
    reg = rg.build_regularization(g)
    assert reg.lambda0 == 0.0
    assert abs(reg.norm_prime["e"] - 0.5) < 1e-12


def test_lambda0_on_decoupled_eigenvalue_rejected():
    g = gr.interval(1.0)
    with pytest.raises(em.PoleOfWeylError):
        rg.build_regularization(g, math.pi ** 2)


def test_halfline_requires_explicit_lambda0():
    g = MetricGraph(("a",), (Edge("h", "a", None, math.inf),))
    with pytest.raises(em.EdgeModelError):
        rg.build_regularization(g)
    reg = rg.build_regularization(g, -1.0)
    assert abs(reg.norm_prime["h"] - 0.5) < 1e-12  # m'(-1) = 1/2
    assert reg.epsilon == 1.0


def test_epsilon_certificate():
    g = gr.star(2, lengths=[1.0, 0.25])
    reg = rg.build_regularization(g)
    assert abs(reg.epsilon - math.pi ** 2) < 1e-9  # nearest Dirichlet ground state
    assert reg.certified


@pytest.mark.parametrize("model,ells,lam_probe", [
    (Laplacian(), [0.3, 1.0, 2.7], -2.0),
    (Dirac(1.0), [0.3, 1.0, 2.7], 0.8),
])
def test_regularized_normalization(model, ells, lam_probe):
    for ell in ells:
        g = gr.interval(ell, model=model)
        reg = rg.build_regularization(g)
        at0 = rg.regularized_weyl(model, ell, reg.lambda0, reg, edge_id="e")
        assert np.max(np.abs(at0)) < 1e-12
        h = 1e-6 * max(1.0, abs(reg.lambda0))
        fd = (rg.regularized_weyl(model, ell, reg.lambda0 + h, reg, edge_id="e")
              - rg.regularized_weyl(model, ell, reg.lambda0 - h, reg, edge_id="e")) / (2 * h)
        norm = float(np.max(np.abs(np.linalg.eigvalsh(fd))))
        assert abs(norm - 1.0) < 1e-4  # finite differences; exact path in acceptance
        exact = em.weyl_derivative(model, ell, reg.lambda0) / reg.norm_prime["e"]
        assert abs(np.max(np.abs(np.linalg.eigvalsh(exact))) - 1.0) < 1e-9


def test_regularized_value_example():
    g = gr.interval(1.0)
    reg = rg.build_regularization(g)
    got = rg.regularized_weyl(Laplacian(), 1.0, -1.0, reg, edge_id="e")
    expected = (em.weyl(Laplacian(), 1.0, -1.0) - em.weyl(Laplacian(), 1.0, 0.0)) / 0.5
    assert np.max(np.abs(got - expected)) < 1e-12


def test_dirac_weights_increase_as_length_shrinks():
    vals = []
    for ell in [1.0, 0.1, 0.01]:
        vals.append(em.weyl_norm_prime(Dirac(1.0), ell))
    assert vals[0] < vals[1] < vals[2]
    for ell, val in zip([1.0, 0.1, 0.01], vals):
        assert val >= 1.0 / ell  # c = 1 lower bound


def _half_line_graph(first_half=True):
    edges = [Edge("h", "a", None, math.inf), Edge("e", "a", "b", 0.7)]
    return MetricGraph(("a", "b"), tuple(edges if first_half else edges[::-1]))


@pytest.mark.parametrize("g,lam0", [
    (gr.random_graph(3, 40), None),
    (gr.random_graph(3, 40), -3.0),
    (gr.random_graph(2, 20, model=Dirac(1.3)), None),
    (gr.random_graph(2, 20, model=Dirac(1.3)), 0.4),
    (gr.geometric_chain(0.5, 0.5, 40), None),
    (_half_line_graph(), -2.5),
], ids=["laplacian", "laplacian-negative", "dirac", "dirac-off-center", "chain", "half-line"])
def test_regularization_equals_the_per_edge_scalar_reference(g, lam0):
    # One kernel call per edge model and one stacked eigensolve give the
    # fields of one scalar evaluation per edge: the layout, the distances
    # and so epsilon and certified exactly; M(lambda0) within the two
    # kernels' bounds, and ||M'(lambda0)|| within twice theirs (a max-entry
    # change moves a 2x2 spectral norm by at most twice it) plus rounding.
    reg = rg.build_regularization(g, lam0)
    eps = math.inf
    for e in g.edges:
        model = gr.edge_model_for(g.model, e)
        dist, m, norm = em._special_values(model, e.length, reg.lambda0)
        bound_m, bound_dm = kernel_bounds(model, e.length, reg.lambda0, m,
                                          em.weyl_derivative(model, e.length, reg.lambda0))
        assert np.abs(reg.m_at_lambda0[e.id] - m).max() <= 2 * bound_m
        assert type(reg.norm_prime[e.id]) is float
        assert abs(reg.norm_prime[e.id] - norm) <= 4 * bound_dm + 8 * _EPS * norm
        eps = min(eps, dist)
    assert list(reg.m_at_lambda0) == list(reg.norm_prime) == [e.id for e in g.edges]
    assert type(reg.epsilon) is float and reg.epsilon == eps
    assert reg.certified == (eps > 1e-6)


@pytest.mark.parametrize("model", [Laplacian(), Dirac(1.0), Dirac(2.5), Dirac(137.0)],
                         ids=["laplacian", "dirac-1", "dirac-2.5", "dirac-137"])
def test_regularization_at_the_default_lambda0_has_the_scalar_bytes(model):
    # At the default lambda0, w = 0 on every edge, and the array kernel's
    # series gives the scalar path's M, M' and norms bit for bit.
    lengths = np.geomspace(1e-4, 50.0, 304)
    reg = rg.build_regularization(gr.star(304, lengths=lengths.tolist(), model=model))
    _, _, _, m, dm = em._responses(model, lengths, model._lambda0, derivative=True)
    for i, e in enumerate(reg.m_at_lambda0):
        _, _, want_m, want_dm = em._response(model, lengths[i], model._lambda0, derivative=True)
        assert m[i].tobytes() == reg.m_at_lambda0[e].tobytes() == want_m.tobytes()
        assert dm[i].tobytes() == want_dm.tobytes()
        assert reg.norm_prime[e] == em._special_values(model, lengths[i], model._lambda0)[2]


@pytest.mark.parametrize("g,lam0", [
    # pi^2 is within the pole guard of the last two edges, whose nearest
    # poles differ; (pi/0.7)^2 (1 + 1e-10) is within it on both edges of
    # the half-line graph, in either order, and 0 on the half-line alone.
    (gr.star(3, lengths=[0.5, 1.0 + 2e-10, 1.0]), math.pi ** 2),
    (_half_line_graph(), (math.pi / 0.7) ** 2 * (1 + 1e-10)),
    (_half_line_graph(first_half=False), (math.pi / 0.7) ** 2 * (1 + 1e-10)),
    (_half_line_graph(first_half=False), 0.0),
])
def test_lambda0_on_poles_reports_the_first_edge_in_graph_order(g, lam0):
    with pytest.raises(em.PoleOfWeylError) as want:
        for e in g.edges:
            em._special_values(gr.edge_model_for(g.model, e), e.length, lam0)
    with pytest.raises(em.PoleOfWeylError) as got:
        rg.build_regularization(g, lam0)
    assert str(got.value) == str(want.value)
    assert (got.value.lam, got.value.nearest_pole) == (want.value.lam, want.value.nearest_pole)
