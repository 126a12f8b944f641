"""Regularized boundary data: per-edge weights sqrt(||M'(lambda0)||).

Rescaling the per-edge trace maps by r_e = sqrt(||M_e'(lambda0)||) (and
re-centering the second map by M_e(lambda0)) turns the direct sum of edge
trace maps into honest boundary data for the whole graph even when edge
lengths shrink to zero.  This module computes and certifies that data:
the squared weights r_e^2, the special values M_e(lambda0), and the
distance from lambda0 to the decoupled edge spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import edges as em
from .graphs import MetricGraph, edge_model_for

__all__ = ["Regularization", "build_regularization", "regularized_weyl"]

_CERT_TOL = 1e-6


@dataclass(frozen=True)
class Regularization:
    lambda0: float
    m_at_lambda0: Mapping[str, np.ndarray]
    norm_prime: Mapping[str, float]       # r_e**2 = ||M_e'(lambda0)||
    epsilon: float                        # certified distance to decoupled spectra
    certified: bool                       # epsilon > 1e-6 on the stored edge set


def build_regularization(g: MetricGraph, lam0: Optional[float] = None) -> Regularization:
    """Squared weights r_e^2 and special values M_e at the real point lambda0.

    Raises when lambda0 sits within 1e-9 of a decoupled edge eigenvalue,
    naming the first such edge's.  One array evaluation per edge model.
    ``epsilon`` is the distance from lambda0 to the decoupled spectra of
    the stored edges only, truncation metadata or not.  For a geometric
    chain with ratio > 1 the Dirichlet values (pi / l)^2 of the edges left
    out pile up at 0, so ``geometric_chain(1, 2, 5)`` certifies
    epsilon = (pi/16)^2 at lambda0 = 0.  lambda0 defaults to the model's
    ``_lambda0`` (c^2/2 for Dirac, 0 for finite Laplacian graphs); graphs
    with half-line edges need an explicit negative value.
    """
    if lam0 is None:
        if g.has_half_line:
            raise em.EdgeModelError(
                "graphs with half-line edges need an explicit lambda0 < 0"
            )
        lam0 = g.model._lambda0
    lam0 = float(lam0)
    groups = [(at, em._responses(model, lengths, lam0, derivative=True))
              for model, at, lengths in _by_model(g)]
    hits = [(at[j], pole[j]) for at, (_, pole, hit, _, _) in groups for j in np.flatnonzero(hit)]
    if hits:
        raise em.PoleOfWeylError(complex(lam0), float(min(hits)[1]))
    ids = [e.id for e in g.edges]
    special, norms = dict.fromkeys(ids), dict.fromkeys(ids)  # in graph order
    for at, (_, _, _, m, dm) in groups:
        for i, mi, norm in zip(at, m, np.abs(np.linalg.eigvalsh(dm)).max(axis=-1).tolist()):
            special[ids[i]], norms[ids[i]] = mi, norm
    eps = min([math.inf] + [float(out[0].min()) for _, out in groups])
    return Regularization(lam0, special, norms, eps, eps > _CERT_TOL)


def _by_model(g: MetricGraph):
    """The edges of ``g`` grouped by edge model: [(model, positions in
    g.edges, lengths)], in the order of each model's first edge."""
    groups = {}
    for i, e in enumerate(g.edges):
        groups.setdefault(edge_model_for(g.model, e), []).append(i)
    return [(model, at, np.array([g.edges[i].length for i in at]))
            for model, at in groups.items()]


def regularized_weyl(model, ell: float, lam, reg: Regularization,
                     edge_id: str) -> np.ndarray:
    """(M(lambda) - M(lambda0)) / ||M'(lambda0)|| for the edge ``edge_id``,
    with M(lambda0) and ||M'(lambda0)|| read from ``reg``.

    By construction the result vanishes at lambda0 and has unit derivative
    norm there.
    """
    return (em.weyl(model, ell, lam) - reg.m_at_lambda0[edge_id]) / reg.norm_prime[edge_id]
