"""Weighted discrete Laplacian associated to a coupled metric graph.

For the orthogonal global basis {b_w} of the coupled subspace, the
coupling operator L = (+) L_v and the direct sum M0 of the per-edge
boundary response matrices at the regularization point, this module
assembles

    b(v, w) = <(M0 - L) b_v, b_w>          (v != w, zero diagonal),
    c(v)    = <(L - M0) b_v, b_v> - sum_w b(v, w),
    m(v)    = || R b_v ||^2,               R = (+) r_e I,

the weighted degree Deg(v) = sum_w b(v, w) / m(v), and the matrix

    Lmin[v, w] = <(L - M0) b_v, b_w> / (||R b_v|| ||R b_w||),

which is unitarily equivalent to the discrete operator
(D_L f)_v = ( sum_w b(v,w)(f_v - f_w) + c(v) f_v ) / m(v) via
x |-> (||R b_v|| x_v).

All of b, c and Lmin are read off the values of one sparse matrix on its
pattern, the boundary pairing P[v, w] = <(L - M0) b_w, b_v> of
``coupling._CompiledPairing`` (which also gives the secular matrix):
b(v, w) = -Re P[v, w] above the diagonal, c(v) = Re P[v, v] - sum_w
b(v, w), and Lmin = R^-1 P R^-1 with R = diag(||R b_v||).  P couples only
basis vectors of one vertex or of the two ends of an edge, so no n x n
array is formed but the dense Lmin of a small index set.  The dict b is
read as arrays (i, j, w) through ``_weights``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .coupling import VertexCoupling, _CompiledPairing
from .edges import EdgeModel
from .graphs import MetricGraph
from .regularize import Regularization

__all__ = [
    "DiscreteLaplacian",
    "build_discrete",
    "weighted_degree",
    "lmin_matrix",
    "unitary_equivalence_residual",
    "apply_discrete",
    "quadratic_form",
    "discrete_to_json_dict",
]

_DENSE_LIMIT = 64
_REAL_TOL = 1e-12
_HERM_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteLaplacian:
    labels: tuple                 # index set, one label per basis element
    m: np.ndarray                 # positive measure
    c: np.ndarray                 # real potential
    b: Mapping                    # {(i, j): weight}, i < j, symmetric closure implied
    criteria_applicable: bool     # all weights real and >= 0
    model: EdgeModel              # the edge model of the underlying graph
    truncation: Optional[object]  # TruncationInfo of the underlying graph
    flavor: str = "custom"        # coupling flavor the data came from
    lambda0: float = 0.0

    @property
    def size(self) -> int:
        return len(self.labels)

    def weight(self, i: int, j: int):
        if i == j:
            return 0.0
        key = (i, j) if i < j else (j, i)
        return self.b.get(key, 0.0)

    def row_sum(self, i: int):
        return sum(val for key, val in self.b.items() if i in key)


def _weights(dl: DiscreteLaplacian):
    """The weights b as arrays (i, j, w), in the key order of ``dl.b``."""
    ij = np.array(list(dl.b), dtype=np.intp).reshape(-1, 2)
    return ij[:, 0], ij[:, 1], np.fromiter(dl.b.values(), dtype=float, count=len(dl.b))


def _regularized_pairing(g: MetricGraph, coupling: VertexCoupling,
                         reg: Regularization):
    """Compiled pairing, the values of P at M0 and m = ||R b||^2."""
    compiled = _CompiledPairing(g, coupling)
    gb = compiled.basis
    r2 = np.array([reg.norm_prime[eid] for eid, _ in gb.coords])
    m = np.bincount(gb.element, r2[gb.coord] * (gb.value.real ** 2 + gb.value.imag ** 2),
                    len(gb.labels))
    return compiled, compiled(reg.m_at_lambda0), m


def build_discrete(g: MetricGraph, coupling: VertexCoupling,
                   reg: Regularization) -> DiscreteLaplacian:
    """Assemble weights, potential and measure; verifies Hermiticity to 1e-10.

    Couplings whose off-diagonal pairings come out complex or negative are
    still assembled but tagged ``criteria_applicable=False`` (real parts are
    stored; the summability/positivity criteria then refuse to run).
    """
    compiled, vals, m = _regularized_pairing(g, coupling, reg)
    n = len(compiled.basis.labels)
    rows, cols = compiled.rows, compiled.cols
    herm_err = np.linalg.norm(vals - vals[compiled.mirror].conj())
    if herm_err > _HERM_TOL * max(1.0, np.linalg.norm(vals)):
        raise AssertionError(f"pairing matrix not Hermitian: error {herm_err:.2e}")

    # Every diagonal entry is on the pattern (in its vertex block), in order.
    diagonal = vals[rows == cols].real
    scale = max(1.0, float(np.max(np.abs(vals))) if vals.size else 1.0)
    upper = (cols > rows) & (np.abs(vals) >= 1e-14 * scale)
    rows, cols, vals = rows[upper], cols[upper], -vals[upper]
    applicable = not (np.any(np.abs(vals.imag) > _REAL_TOL * np.maximum(1.0, np.abs(vals)))
                      or np.any(vals.real < 0))
    b = dict(zip(zip(rows.tolist(), cols.tolist()), vals.real))
    row_sums = (np.bincount(rows, vals.real, minlength=n)
                + np.bincount(cols, vals.real, minlength=n))
    c = diagonal - row_sums
    return DiscreteLaplacian(
        labels=compiled.basis.labels,
        m=m,
        c=c,
        b=b,
        criteria_applicable=applicable,
        model=g.model,
        truncation=g.truncation,
        flavor=coupling.flavor,
        lambda0=reg.lambda0,
    )


def weighted_degree(dl: DiscreteLaplacian) -> np.ndarray:
    """Deg(v) = sum_w b(v, w) / m(v), per index."""
    i, j, w = _weights(dl)
    return (np.bincount(i, w, dl.size) + np.bincount(j, w, dl.size)) / dl.m


def lmin_matrix(g: MetricGraph, coupling: VertexCoupling, reg: Regularization):
    """Hermitian matrix <(L - M0) b_v, b_w> / (||R b_v|| ||R b_w||) over the
    global basis.

    Dense ndarray below 64 indices, sparse CSR beyond.
    """
    compiled, vals, m = _regularized_pairing(g, coupling, reg)
    rnorm = np.sqrt(m)
    rows, cols = compiled.rows, compiled.cols
    vals = vals / (rnorm[rows] * rnorm[cols])
    if len(m) < _DENSE_LIMIT:
        return compiled.dense(vals)
    import scipy.sparse  # imported here: it is most of the package's import time
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(len(m), len(m)))


def apply_discrete(dl: DiscreteLaplacian, f: np.ndarray) -> np.ndarray:
    """(D_L f)_v = ( sum_w b(v,w)(f_v - f_w) + c(v) f_v ) / m(v)."""
    f = np.asarray(f, dtype=complex)
    i, j, w = _weights(dl)
    flow = w * (f[i] - f[j])
    out = dl.c * f
    np.add.at(out, i, flow)
    np.subtract.at(out, j, flow)
    return out / dl.m


def quadratic_form(dl: DiscreteLaplacian, f: np.ndarray) -> float:
    """(D_L f, f)_m via the energy form
    1/2 sum b(v,w) |f_v - f_w|^2 + sum c(v) |f_v|^2."""
    f = np.asarray(f, dtype=complex)
    i, j, w = _weights(dl)
    return float(np.sum(w * np.abs(f[i] - f[j]) ** 2) + np.sum(dl.c * np.abs(f) ** 2))


def unitary_equivalence_residual(dl: DiscreteLaplacian, lmin, trials=100,
                                 seed: int = 0, vectors=None) -> float:
    """max over trial vectors of ||U D_L x - Lmin U x|| / ||x||, U = diag(sqrt m)."""
    n = dl.size
    u = np.sqrt(dl.m)
    if vectors is None:
        rng = np.random.default_rng(seed)
        vectors = []
        for _ in range(trials):
            x = np.zeros(n, dtype=complex)
            support = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            x[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
            vectors.append(x)
    worst = 0.0
    for x in vectors:
        lhs = u * apply_discrete(dl, x)
        rhs = lmin @ (u * x)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x)))
    return worst


def discrete_to_json_dict(dl: DiscreteLaplacian) -> dict:
    """JSON-ready export: indices, measure, weights (as [v, w, value] triples
    in deterministic order) and potential."""
    triples = sorted(
        ([dl.labels[i], dl.labels[j], float(val)] for (i, j), val in dl.b.items()),
        key=lambda t: (t[0], t[1]),
    )
    return {
        "indices": list(dl.labels),
        "m": {lab: float(val) for lab, val in zip(dl.labels, dl.m)},
        "b": triples,
        "c": {lab: float(val) for lab, val in zip(dl.labels, dl.c)},
        "criteria_applicable": dl.criteria_applicable,
    }
