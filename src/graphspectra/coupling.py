"""Vertex couplings: per-vertex subspaces with Hermitian blocks.

A coupling assigns to every vertex v a subspace of C^{deg v} (coordinates
ordered like the vertex's incidence set) spanned by mutually orthogonal
basis vectors, plus a Hermitian matrix acting on that subspace.  The
delta constructors build the one-dimensional couplings used for point
interactions: the all-ones vector for the Laplacian and the phase vector
(1 at outgoing, i at incoming coordinates) for the Dirac model, with the
block alpha(v)/deg(v).

Basis vectors are stored unnormalized: the weighted measures downstream
depend on the raw vectors, so normalization happens only inside matrix
assembly.  ``pairing`` is that assembly: the one place where the boundary
form <(L - M) b_j, b_i> is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .edges import Dirac, Laplacian
from .graphs import MetricGraph, incidence_sets, boundary_coordinates

__all__ = [
    "VertexBlock",
    "VertexCoupling",
    "GlobalBasisElement",
    "GlobalBasis",
    "delta_coupling",
    "custom_coupling",
    "global_basis",
    "pairing",
]


@dataclass(frozen=True)
class VertexBlock:
    """Subspace basis (columns, mutually orthogonal, raw scale) and the
    Hermitian matrix of the block with respect to the normalized columns."""

    vertex: str
    basis: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def operator(self) -> np.ndarray:
        """The block as a Hermitian operator on C^{deg v} (zero on the complement)."""
        norms = np.linalg.norm(self.basis, axis=0)
        unit = self.basis / norms
        return unit @ self.matrix @ unit.conj().T


@dataclass(frozen=True)
class VertexCoupling:
    flavor: str  # "delta" or "custom"
    blocks: Mapping[str, VertexBlock]

    def block(self, vertex: str) -> VertexBlock:
        return self.blocks[vertex]


def _delta_phases(entries, dirac: bool) -> np.ndarray:
    if dirac:
        return np.array([1.0 if e.endpoint == 0 else 1.0j for e in entries])
    return np.ones(len(entries), dtype=complex)


def delta_coupling(g: MetricGraph, alpha: Mapping[str, float],
                   flavor: Optional[str] = None) -> VertexCoupling:
    """Point-interaction coupling of strength alpha(v) at each vertex.

    ``flavor`` is "laplacian" or "dirac"; by default it follows the graph's
    edge model.  Each vertex gets the one-dimensional subspace spanned by
    its phase vector and the block alpha(v)/deg(v) on it.
    """
    if flavor is None:
        flavor = "dirac" if isinstance(g.model, Dirac) else "laplacian"
    if flavor not in ("laplacian", "dirac"):
        raise ValueError(f"unknown delta flavor {flavor!r}")
    inc = incidence_sets(g)
    missing = [v for v in g.vertices if v not in alpha]
    if missing:
        raise ValueError(f"alpha missing for vertices {sorted(missing)}")
    blocks = {}
    for v, entries in inc.items():
        vec = _delta_phases(entries, flavor == "dirac")
        mat = np.array([[alpha[v] / len(entries)]], dtype=complex)
        blocks[v] = VertexBlock(v, vec[:, None], mat)
    return VertexCoupling("delta", blocks)


def custom_coupling(g: MetricGraph, per_vertex: Mapping) -> VertexCoupling:
    """Coupling from explicit per-vertex (basis vectors, Hermitian matrix) data.

    Basis vectors are given as rows/columns over the vertex's incidence
    coordinates and must be linearly independent; non-orthogonal input is
    orthogonalized by unnormalized Gram-Schmidt in input order.  The matrix
    refers to the normalized basis.  Vertices absent from ``per_vertex``
    default to the full subspace C^{deg v} with zero matrix (Neumann-type).
    """
    inc = incidence_sets(g)
    unknown = [v for v in per_vertex if v not in inc]
    if unknown:
        raise ValueError(f"coupling given for undeclared vertices {sorted(unknown)}")
    blocks = {}
    for v, entries in inc.items():
        deg = len(entries)
        if v not in per_vertex:
            blocks[v] = VertexBlock(v, np.eye(deg, dtype=complex),
                                    np.zeros((deg, deg), dtype=complex))
            continue
        vectors, matrix = per_vertex[v]
        basis = np.asarray(vectors, dtype=complex)
        if basis.size == 0:
            raise ValueError(f"vertex {v}: coupling subspace must have dim >= 1")
        # Input is a sequence of basis vectors, each of length deg.
        if basis.ndim == 1:
            basis = basis[None, :]
        if basis.ndim != 2 or basis.shape[1] != deg:
            raise ValueError(
                f"vertex {v}: basis vectors must have length deg = {deg}"
            )
        basis = basis.T
        basis = _gram_schmidt(basis, v)
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        k = basis.shape[1]
        if matrix.shape != (k, k):
            raise ValueError(f"vertex {v}: matrix must be {k}x{k}")
        if np.linalg.norm(matrix - matrix.conj().T) > 1e-12 * max(1.0, np.linalg.norm(matrix)):
            raise ValueError(f"vertex {v}: coupling matrix must be Hermitian")
        blocks[v] = VertexBlock(v, basis, matrix)
    return VertexCoupling("custom", blocks)


def _gram_schmidt(basis: np.ndarray, vertex: str) -> np.ndarray:
    out = basis.astype(complex).copy()
    for j in range(out.shape[1]):
        for i in range(j):
            denom = np.vdot(out[:, i], out[:, i])
            out[:, j] -= out[:, i] * (np.vdot(out[:, i], out[:, j]) / denom)
        if np.linalg.norm(out[:, j]) < 1e-12 * max(1.0, np.linalg.norm(basis[:, j])):
            raise ValueError(f"vertex {vertex}: basis vectors are linearly dependent")
    return out


@dataclass(frozen=True)
class GlobalBasisElement:
    label: str
    vertex: str
    positions: tuple            # indices into the global coordinate list
    values: np.ndarray          # raw (unnormalized) vector entries
    norm: float

    def embed(self, size: int) -> np.ndarray:
        out = np.zeros(size, dtype=complex)
        out[list(self.positions)] = self.values
        return out


@dataclass(frozen=True)
class GlobalBasis:
    coords: tuple               # global boundary coordinates (edge id, t)
    elements: tuple             # GlobalBasisElement in deterministic order

    @property
    def size(self) -> int:
        return len(self.coords)

    def index_of(self, label: str) -> int:
        for i, el in enumerate(self.elements):
            if el.label == label:
                return i
        raise KeyError(label)


def _add_blocks(applied: np.ndarray, basis: np.ndarray, blocks) -> None:
    """applied[idx] += block @ basis[idx] for (idx, block) pairs whose
    coordinate lists are disjoint; one batched product per block size."""
    by_size = {}
    for idx, block in blocks:
        by_size.setdefault(len(idx), []).append((idx, block))
    for same in by_size.values():
        pos = np.array([idx for idx, _ in same])
        applied[pos] += np.array([block for _, block in same]) @ basis[pos]


def pairing(gb: GlobalBasis, coupling: VertexCoupling, edge_blocks) -> np.ndarray:
    """Boundary pairing P[i, j] = <(L - M) b_j, b_i> over the raw global basis.

    L is the coupling operator (+)_v L_v and M the direct sum of the
    per-edge blocks ``edge_blocks[edge id]``, each placed at its edge's
    boundary coordinates (1x1 on a half-line).  The secular matrix, the
    discrete weights and L_min are this matrix for M = M(lambda) or
    M(lambda0), rescaled by basis or measure norms.  (L - M) B is applied
    block by block and B^H as a sum over each element's own coordinates,
    so no coordinate-by-coordinate matrix is formed and the work grows
    like (number of coordinates) x (number of basis elements).
    """
    n = len(gb.elements)
    counts = [len(el.positions) for el in gb.elements]
    rows = np.concatenate([el.positions for el in gb.elements])
    cols = np.repeat(np.arange(n), counts)
    values = np.concatenate([el.values for el in gb.elements])
    basis = np.zeros((gb.size, n), dtype=complex)
    basis[rows, cols] = values
    applied = np.zeros_like(basis)
    owned = {el.vertex: el.positions for el in gb.elements}
    _add_blocks(applied, basis,
                [(idx, coupling.block(v).operator()) for v, idx in owned.items()])
    by_edge = {}
    for p, (eid, _) in enumerate(gb.coords):
        by_edge.setdefault(eid, []).append(p)
    _add_blocks(applied, basis,
                [(idx, -edge_blocks[eid]) for eid, idx in by_edge.items()])
    terms = applied[rows]
    terms *= values.conj()[:, None]
    return np.add.reduceat(terms, np.cumsum([0] + counts[:-1]), axis=0)


def global_basis(g: MetricGraph, coupling: VertexCoupling) -> GlobalBasis:
    """Orthogonal basis of the coupled subspace, one group of vectors per vertex.

    Ordering is deterministic: vertices lexicographically, then basis column
    index; labels are the vertex id, suffixed ":k" when dim > 1.  Disjointness
    of supports across vertices is verified.
    """
    inc = incidence_sets(g)
    coords = boundary_coordinates(g)
    pos = {coord: i for i, coord in enumerate(coords)}
    elements = []
    claimed = {}
    for v in sorted(g.vertices):
        entries = inc[v]
        block = coupling.block(v)
        if block.basis.shape[0] != len(entries):
            raise ValueError(f"vertex {v}: coupling size mismatch")
        positions = tuple(pos[e.coordinate] for e in entries)
        for p in positions:
            if p in claimed:
                raise ValueError(f"coordinate {coords[p]} claimed twice")
            claimed[p] = v
        for k in range(block.dim):
            vec = block.basis[:, k]
            label = v if block.dim == 1 else f"{v}:{k}"
            elements.append(GlobalBasisElement(
                label, v, positions, vec.copy(), float(np.linalg.norm(vec))
            ))
    return GlobalBasis(coords, tuple(elements))
