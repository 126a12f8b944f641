from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import regularize as rg
from graphspectra.edges import Dirac, Laplacian
from graphspectra.graphs import Edge, MetricGraph


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
