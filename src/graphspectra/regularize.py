"""Regularized boundary data: per-edge weights sqrt(||M'(lambda0)||).

Rescaling the per-edge trace maps by r_e = sqrt(||M_e'(lambda0)||) (and
re-centering the second map by M_e(lambda0)) turns the direct sum of edge
trace maps into honest boundary data for the whole graph even when edge
lengths shrink to zero.  This module computes and certifies that data:
the weights, the special values M_e(lambda0), and the distance from
lambda0 to the decoupled edge spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import edges as em
from .graphs import MetricGraph, edge_model_for

__all__ = ["Regularization", "build_regularization", "regularized_weyl"]

_POLE_TOL = 1e-9
_CERT_TOL = 1e-6


@dataclass(frozen=True)
class Regularization:
    lambda0: float
    weights: Mapping[str, float]          # r_e = sqrt(||M_e'(lambda0)||)
    m_at_lambda0: Mapping[str, np.ndarray]
    norm_prime: Mapping[str, float]       # r_e**2
    epsilon: float                        # certified distance to decoupled spectra
    certified: bool                       # epsilon > 1e-6 on the stored edge set

    def weight(self, edge_id: str) -> float:
        return self.weights[edge_id]


def build_regularization(g: MetricGraph, lam0: Optional[float] = None) -> Regularization:
    """Weights and special values for every edge at the real point lambda0.

    Raises when lambda0 sits within 1e-9 of a decoupled edge eigenvalue.
    For graphs carrying geometric-chain truncation metadata the certified
    distance accounts for the whole infinite family via the closed-form
    pole locations (the Dirichlet ground states grow as lengths decay, so
    the truncated part is binding).  lambda0 defaults to the model's
    canonical point (c^2/2 for Dirac, 0 for finite Laplacian graphs);
    graphs with half-line edges need an explicit negative value.
    """
    if lam0 is None:
        lam0 = None if g.has_half_line else em.default_lambda0(g.model)
        if lam0 is None:
            raise em.EdgeModelError(
                "graphs with half-line edges need an explicit lambda0 < 0"
            )
    lam0 = float(lam0)
    weights, special, norms = {}, {}, {}
    eps = math.inf
    for e in g.edges:
        model = edge_model_for(g.model, e)
        dist, pole = em.pole_distance(model, e.length, lam0)
        if dist < _POLE_TOL * max(1.0, abs(pole)):
            raise em.PoleOfWeylError(lam0, pole)
        eps = min(eps, dist)
        r2 = em.weyl_norm_prime(model, e.length, lam0)
        weights[e.id] = math.sqrt(r2)
        norms[e.id] = r2
        special[e.id] = em.weyl(model, e.length, lam0)
    return Regularization(lam0, weights, special, norms, eps, eps > _CERT_TOL)


def regularized_weyl(model, ell: float, lam, reg: Regularization,
                     edge_id: Optional[str] = None) -> np.ndarray:
    """(M(lambda) - M(lambda0)) / ||M'(lambda0)|| for one edge.

    By construction the result vanishes at lambda0 and has unit derivative
    norm there.  ``edge_id`` selects stored special values; without it they
    are recomputed from (model, ell).
    """
    if edge_id is not None:
        m0 = reg.m_at_lambda0[edge_id]
        r2 = reg.norm_prime[edge_id]
    else:
        m0 = em.weyl(model, ell, reg.lambda0)
        r2 = em.weyl_norm_prime(model, ell, reg.lambda0)
    return (em.weyl(model, ell, lam) - m0) / r2
