"""Vertex couplings: per-vertex subspaces with Hermitian blocks.

A coupling assigns to every vertex v a subspace of C^{deg v} spanned by
mutually orthogonal basis vectors, plus a Hermitian matrix on it; its
``VertexBlock`` also carries v's boundary coordinates (edge id, t), in
incidence order, and its operator L_v, both fixed at construction.  The
delta constructors build the one-dimensional couplings of point
interactions: the edge model's trace phases ``_phases`` (all ones for the
Laplacian, i at incoming Dirac coordinates), block alpha(v)/deg(v).

Basis vectors are stored unnormalized: the weighted measures downstream
depend on the raw vectors, so normalization happens only inside matrix
assembly.  ``_CompiledPairing`` is that assembly, over the sparse matrix B
of ``global_basis``: the one place where <(L - M) b_j, b_i> is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .graphs import (MetricGraph, boundary_coordinates, edge_model_for, incidence_sets,
                     validate_graph)

__all__ = [
    "VertexBlock",
    "VertexCoupling",
    "GlobalBasis",
    "delta_coupling",
    "custom_coupling",
    "global_basis",
]


@dataclass(frozen=True)
class VertexBlock:
    """Subspace basis (orthogonal columns, raw scale; rows at ``coords``), its
    Hermitian matrix on the normalized columns and the operator they give."""

    vertex: str
    coords: tuple               # (edge id, t) of each basis row
    basis: np.ndarray
    matrix: np.ndarray
    _operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unit = self.basis / np.linalg.norm(self.basis, axis=0)
        object.__setattr__(self, "_operator", unit @ self.matrix @ unit.conj().T)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def operator(self) -> np.ndarray:
        """The block as a Hermitian operator on C^{deg v} (zero on the complement)."""
        return self._operator


@dataclass(frozen=True)
class VertexCoupling:
    flavor: str  # "delta" or "custom"
    blocks: Mapping[str, VertexBlock]

    def block(self, vertex: str) -> VertexBlock:
        return self.blocks[vertex]


def _delta_phases(coords, model) -> np.ndarray:
    """Delta-coupling phases over ``coords``: the model's trace phase at each t."""
    return np.array([model._phases[t] for _, t in coords])


def _vertex_blocks(g: MetricGraph, coupling: VertexCoupling):
    """``g``'s boundary coordinates and its vertices' blocks in sorted order;
    raises unless ``g`` is valid and the blocks claim each coordinate once."""
    report = validate_graph(g)
    if not report.ok:
        raise ValueError(f"invalid graph: {report}")
    coords = boundary_coordinates(g)
    blocks = [coupling.block(v) for v in sorted(g.vertices)]
    if sorted(c for block in blocks for c in block.coords) != list(coords):
        raise ValueError("coupling size mismatch: blocks and boundary coordinates differ")
    return coords, blocks


def delta_coupling(g: MetricGraph, alpha: Mapping[str, float]) -> VertexCoupling:
    """Point-interaction coupling of strength alpha(v) at each vertex.

    Each vertex gets the one-dimensional subspace spanned by its phase
    vector for the graph's edge model and the block alpha(v)/deg(v) on it.
    """
    inc = {v: tuple(e.coordinate for e in ent) for v, ent in incidence_sets(g).items()}
    missing = [v for v in g.vertices if v not in alpha]
    if missing:
        raise ValueError(f"alpha missing for vertices {sorted(missing)}")
    blocks = {}
    for v, coords in inc.items():
        vec = _delta_phases(coords, g.model)
        mat = np.array([[alpha[v] / len(coords)]], dtype=complex)
        blocks[v] = VertexBlock(v, coords, vec[:, None], mat)
    return VertexCoupling("delta", blocks)


def custom_coupling(g: MetricGraph, per_vertex: Mapping) -> VertexCoupling:
    """Coupling from explicit per-vertex (basis vectors, Hermitian matrix) data.

    Basis vectors are given as rows/columns over the vertex's incidence
    coordinates and must be linearly independent; non-orthogonal input is
    orthogonalized by unnormalized Gram-Schmidt in input order.  The matrix
    refers to the normalized basis.  Vertices absent from ``per_vertex``
    default to the full subspace C^{deg v} with zero matrix (Neumann-type).
    """
    inc = {v: tuple(e.coordinate for e in ent) for v, ent in incidence_sets(g).items()}
    unknown = [v for v in per_vertex if v not in inc]
    if unknown:
        raise ValueError(f"coupling given for undeclared vertices {sorted(unknown)}")
    blocks = {}
    for v, coords in inc.items():
        deg = len(coords)
        if v not in per_vertex:
            blocks[v] = VertexBlock(v, coords, np.eye(deg, dtype=complex),
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
        blocks[v] = VertexBlock(v, coords, basis, matrix)
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
class GlobalBasis:
    """The raw basis {b_i} as one sparse matrix B over the boundary
    coordinates: nonzero entries B[coord[k], element[k]] = value[k], sorted
    by coordinate and by element within one coordinate."""

    coords: tuple               # global boundary coordinates (edge id, t)
    labels: tuple               # per element i, as are vertices and norms
    vertices: tuple             # the vertex that owns b_i
    norms: np.ndarray           # ||b_i||
    coord: np.ndarray
    element: np.ndarray
    value: np.ndarray           # raw (unnormalized) entries

    @property
    def size(self) -> int:
        return len(self.coords)


def _by_size(owned):
    """Group {key: index sequence} by length: [(keys, indices)], one entry
    per length, so that each group is handled by one batched operation."""
    groups = {}
    for key, idx in owned.items():
        groups.setdefault(len(idx), []).append((key, idx))
    return [([key for key, _ in same], np.array([idx for _, idx in same]))
            for same in groups.values()]


class _CompiledPairing:
    """The boundary pairing P[i, j] = <(L - M) b_j, b_i> over the raw global
    basis B = ``global_basis(g, coupling)``, kept as ``basis``; compiled once
    per (graph, coupling), and calling it with the edge blocks M gives P.

    L is the coupling operator (+)_v L_v, M the direct sum of the edge
    blocks ``edge_blocks[edge id]`` at their boundary coordinates (1x1 on a
    half-line).  The secular matrix, the discrete weights and L_min are P
    at M(lambda) or M(lambda0), rescaled by basis or measure norms.

    P is returned as its values on one symmetric pattern (b_i and b_j meet
    only at a vertex or across an edge): ``rows`` and ``cols`` in row-major
    order, ``mirror`` the position of each entry's transpose.  The vertex
    term P0 = B^H L B is stored there; the edge term B^H M B is one triplet
    per pair of nonzero entries B[p, i], B[q, j] with coordinates (p, q) on
    one edge: the weight conj(b_i[p]) b_j[q], the position of M[p, q] in
    the blocks stacked in ``edge_ids`` order, sorted by pattern entry.  So
    each M costs a gather, a product and one segment sum: O(nnz) work, with
    nnz = 4E for delta couplings.
    """

    def __init__(self, g: MetricGraph, coupling: VertexCoupling):
        self.basis = gb = global_basis(g, coupling)
        # (edge id, edge model, length) in graph order: what M(lambda) needs.
        self.edges = [(e.id, edge_model_for(g.model, e), e.length) for e in g.edges]
        n = len(gb.labels)
        shapes = {}  # (first element, block) grouped by basis shape (degree, dimension)
        start = 0
        for v in dict.fromkeys(gb.vertices):
            block = coupling.block(v)
            shapes.setdefault(block.basis.shape, []).append((start, block))
            start += block.dim
        p0_at, p0 = [], []
        for (_, dim), same in shapes.items():
            idx = np.array([i for i, _ in same])[:, None] + np.arange(dim)
            basis = np.array([block.basis for _, block in same])
            ops = np.array([block.operator() for _, block in same])
            p0_at.append((idx[:, :, None] * n + idx[:, None, :]).ravel())
            p0.append((basis.conj().transpose(0, 2, 1) @ ops @ basis).ravel())

        per_coord = np.bincount(gb.coord, minlength=gb.size)
        first = np.cumsum(per_coord) - per_coord

        # Coordinate pairs (p, q) of each edge and the position of M[p, q].
        by_edge = {}
        for p, (eid, _) in enumerate(gb.coords):
            by_edge.setdefault(eid, []).append(p)
        self.edge_ids, pa, pb, src = [], [], [], []
        offset = 0
        for eids, pos in _by_size(by_edge):
            k, d = pos.shape
            self.edge_ids.extend(eids)
            pa.append(np.repeat(pos, d, axis=1).ravel())
            pb.append(np.tile(pos, d).ravel())
            src.append(offset + np.arange(k * d * d))
            offset += k * d * d
        pa, pb, src = (np.concatenate(x) for x in (pa, pb, src))

        # One triplet per pair of nonzero entries in rows p and q of B.
        nb = per_coord[pb]
        total = per_coord[pa] * nb
        pair = np.repeat(np.arange(total.size), total)
        local = np.arange(pair.size) - np.repeat(np.cumsum(total) - total, total)
        ea = first[pa][pair] + local // nb[pair]
        eb = first[pb][pair] + local % nb[pair]
        target = gb.element[ea] * n + gb.element[eb]
        order = np.argsort(target, kind="stable")
        target = target[order]
        self.src = src[pair][order]
        self.weights = (gb.value[ea].conj() * gb.value[eb])[order]
        self.starts = np.flatnonzero(np.diff(target, prepend=-1))

        # The pattern: flat indices i*n + j of both terms, sorted, once each.
        flat = np.sort(np.concatenate(p0_at + [target[self.starts]]), kind="stable")
        flat = flat[np.flatnonzero(np.diff(flat, prepend=-1))]
        self.rows, self.cols = flat // n, flat % n
        self.mirror = np.argsort(self.cols * n + self.rows, kind="stable")
        self.p0 = np.zeros(flat.size, dtype=complex)
        self.p0[np.searchsorted(flat, np.concatenate(p0_at))] = np.concatenate(p0)
        self.segments = np.searchsorted(flat, target[self.starts])
        self.norm_products = gb.norms[self.rows] * gb.norms[self.cols]  # ||b_i|| ||b_j||
        self.n = n

    def __call__(self, edge_blocks) -> np.ndarray:
        """The values of P on the pattern for M = ``edge_blocks``: P0 minus
        the segment sums of the weighted M entries."""
        m = np.concatenate([edge_blocks[eid] for eid in self.edge_ids], axis=None)
        out = self.p0.copy()
        out[self.segments] -= np.add.reduceat(m[self.src] * self.weights, self.starts)
        return out

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The n x n matrix with ``values`` on the pattern and zeros elsewhere."""
        out = np.zeros(self.n * self.n, dtype=values.dtype)
        out[self.rows * self.n + self.cols] = values
        return out.reshape(self.n, self.n)


def global_basis(g: MetricGraph, coupling: VertexCoupling) -> GlobalBasis:
    """Orthogonal basis of the coupled subspace, one group of vectors per
    vertex, as the sparse matrix B.

    Ordering is deterministic: vertices lexicographically, then basis column
    index; labels are the vertex id, suffixed ":k" when dim > 1.  The blocks
    must claim each boundary coordinate once (``_vertex_blocks``).
    """
    coords, blocks = _vertex_blocks(g, coupling)
    pos = {coord: i for i, coord in enumerate(coords)}
    labels, vertices, triples = [], [], []  # triples: (coordinate, element, value)
    for block in blocks:
        v, start = block.vertex, len(labels)
        triples.extend((pos[c], start + k, x) for c, row in zip(block.coords, block.basis.tolist())
                       for k, x in enumerate(row) if x)
        labels.extend([v] if block.dim == 1 else [f"{v}:{k}" for k in range(block.dim)])
        vertices.extend([v] * block.dim)
    coord, element, value = (np.array(x) for x in zip(*triples))
    order = np.argsort(coord, kind="stable")
    coord, element, value = coord[order], element[order], value[order]
    norms = np.sqrt(np.bincount(element, value.real ** 2 + value.imag ** 2, len(labels)))
    return GlobalBasis(coords, tuple(labels), tuple(vertices), norms, coord, element, value)
