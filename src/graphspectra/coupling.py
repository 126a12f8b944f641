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
Both read the blocks in one array pass (``_block_pass``).
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import Mapping, Optional

import numpy as np

from .graphs import MetricGraph

__all__ = [
    "VertexBlock",
    "VertexCoupling",
    "GlobalBasis",
    "PatternMatrix",
    "delta_coupling",
    "custom_coupling",
    "global_basis",
]


@dataclass(frozen=True)
class VertexBlock:
    """Subspace basis (orthogonal columns, raw scale; rows at ``coords``), its
    Hermitian matrix on the normalized columns and the operator they give,
    built here unless the constructor passes it in ``built``."""

    vertex: str
    coords: tuple               # (edge id, t) of each basis row
    basis: np.ndarray
    matrix: np.ndarray
    built: InitVar[Optional[np.ndarray]] = None
    _operator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, built):
        if built is None:
            unit = self.basis / np.linalg.norm(self.basis, axis=0)
            built = unit @ self.matrix @ unit.conj().T
        object.__setattr__(self, "_operator", built)

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


def _delta_phases(t, model) -> np.ndarray:
    """Delta-coupling phases at the endpoints ``t`` (0 or 1, an array of any
    shape): the model's trace phase at each, complex for every model, so
    the oracle's complement SVD is always complex."""
    return np.array(model._phases, dtype=complex)[t]


def _block_pass(g: MetricGraph, coupling: VertexCoupling):
    """One pass over the blocks of ``g``'s vertices in sorted order: the
    blocks, the first row of each, per basis shape (deg, dim) the places of
    its blocks, their rows' positions in ``g._index.coords`` (count, deg),
    elements of B (count, dim) and stacked bases (count, deg, dim), and a
    function building B; one concatenation of the bases feeds all.  Raises
    unless ``g`` is valid and the blocks claim each coordinate once."""
    index = g._index
    blocks = [coupling.block(v) for v in index.vertices]
    size, position = len(index.coords), index.position
    rows = np.array([position.get(c, size) for b in blocks for c in b.coords], dtype=np.intp)
    if rows.size != size or (np.bincount(rows, minlength=size)[:size] != 1).any():
        raise ValueError("coupling size mismatch: blocks and boundary coordinates differ")
    shapes = [b.basis.shape for b in blocks]
    deg, dim = np.fromiter(itertools.chain(*shapes), np.intp, 2 * len(shapes)).reshape(-1, 2).T
    flat = np.concatenate([b.basis.ravel() for b in blocks])
    first_row, first, first_entry = (np.cumsum(x) - x for x in (deg, dim, deg * dim))
    groups = []
    for d, e in dict.fromkeys(shapes):
        same = np.flatnonzero((deg == d) & (dim == e))
        groups.append((same, rows[first_row[same][:, None] + np.arange(d)],
                       first[same][:, None] + np.arange(e),
                       flat[first_entry[same][:, None] + np.arange(d * e)].reshape(-1, d, e)))

    def build_basis() -> GlobalBasis:
        at = np.flatnonzero(flat)  # B's entries, one per nonzero of a basis
        block = np.repeat(np.arange(len(blocks)), deg * dim)[at]
        row, col = np.divmod(at - first_entry[block], dim[block])
        coord, element = rows[first_row[block] + row], first[block] + col
        order = np.lexsort((element, coord))  # by coordinate, then element
        coord, element, value = coord[order], element[order], flat[at[order]]
        vertices = np.repeat(np.array([b.vertex for b in blocks], dtype=object), dim).tolist()
        column = (np.arange(len(vertices)) - np.repeat(first, dim)).tolist()
        labels = [v if n == 1 else f"{v}:{k}"
                  for v, n, k in zip(vertices, np.repeat(dim, dim).tolist(), column)]
        norms = np.sqrt(np.bincount(element, value.real ** 2 + value.imag ** 2, len(labels)))
        return GlobalBasis(index.coords, tuple(labels), tuple(vertices), norms,
                           coord, element, value)
    return blocks, first_row, groups, build_basis


def delta_coupling(g: MetricGraph, alpha: Mapping[str, float]) -> VertexCoupling:
    """Point-interaction coupling of strength alpha(v) at each vertex.

    Each vertex gets the one-dimensional subspace spanned by its phase
    vector for the graph's edge model and the block alpha(v)/deg(v) on it.
    The vertices of one degree share one stacked product for their
    operators, the expression ``VertexBlock`` evaluates for one.
    """
    inc = g._index.incidence
    missing = [v for v in g.vertices if v not in alpha]
    if missing:
        raise ValueError(f"alpha missing for vertices {sorted(missing)}")
    by_degree = {}
    for v, coords in inc.items():
        by_degree.setdefault(len(coords), []).append(v)
    blocks = dict.fromkeys(inc)
    for deg, same in by_degree.items():
        basis = _delta_phases([[t for _, t in inc[v]] for v in same], g.model)[:, :, None]
        matrix = np.array([alpha[v] / deg for v in same], dtype=complex)[:, None, None]
        unit = basis / np.linalg.norm(basis, axis=1, keepdims=True)
        ops = unit @ matrix @ unit.conj().transpose(0, 2, 1)
        for v, vec, mat, op in zip(same, basis, matrix, ops):
            blocks[v] = VertexBlock(v, inc[v], vec, mat, op)
    return VertexCoupling("delta", blocks)


def custom_coupling(g: MetricGraph, per_vertex: Mapping) -> VertexCoupling:
    """Coupling from explicit per-vertex (basis vectors, Hermitian matrix) data.

    Basis vectors are given as rows/columns over the vertex's incidence
    coordinates and must be linearly independent; non-orthogonal input is
    orthogonalized by unnormalized Gram-Schmidt in input order.  The matrix
    refers to the normalized basis.  Vertices absent from ``per_vertex``
    default to the full subspace C^{deg v} with zero matrix (Neumann-type).
    """
    inc = g._index.incidence
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


@dataclass(frozen=True, eq=False)
class PatternMatrix:
    """The n x n matrix with ``values`` at (``rows``, ``cols``), once each, and
    zeros elsewhere; ``@`` costs O(nnz), ``toarray()`` or ``np.asarray`` is dense
    (a stack of matrices when ``values`` has leading axes, as the secular
    matrix's values at m lambda values do)."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    n: int

    def toarray(self) -> np.ndarray:
        lead = self.values.shape[:-1]  # a stack of values gives a stack of matrices
        out = np.zeros(lead + (self.n * self.n,), dtype=self.values.dtype)
        out[..., self.rows * self.n + self.cols] = self.values
        return out.reshape(lead + (self.n, self.n))

    def __array__(self, dtype=None, copy=None):
        return self.toarray() if dtype is None else self.toarray().astype(dtype)

    def __matmul__(self, x) -> np.ndarray:
        terms = (np.asarray(x)[self.cols].T * self.values).T
        out = np.zeros((self.n,) + terms.shape[1:], dtype=terms.dtype)
        np.add.at(out, self.rows, terms)
        return out


class _CompiledPairing:
    """The boundary pairing P[i, j] = <(L - M) b_j, b_i> over the raw global
    basis B = ``global_basis(g, coupling)``, kept as ``basis``; compiled once
    per (graph, coupling), and calling it with the edge blocks M gives P.

    L is the coupling operator (+)_v L_v, M the direct sum of the edge
    blocks (a list per group of edges of ``g._index.by_model``; 1x1 on a
    half-line).  The secular matrix, the discrete weights and L_min are P
    at M(lambda) or M(lambda0), rescaled by basis or measure norms.

    P is returned as its values on one symmetric pattern (b_i and b_j meet
    only at a vertex or across an edge): ``rows`` and ``cols`` in row-major
    order, ``mirror`` the position of each entry's transpose.  The vertex
    term P0 = B^H L B is stored there; the edge term B^H M B is one triplet
    per pair of nonzero entries B[p, i], B[q, j] with coordinates (p, q) on
    one edge: the weight conj(b_i[p]) b_j[q], the position ``src`` of
    M[p, q] in the flat blocks, sorted by pattern entry, the triplets of one
    entry in the order of their edges in ``by_model``.  The blocks of the
    edges of one group (one model, of ``dim`` d) lie side by side, d rows of
    them, and the groups follow each other.  So each M costs a gather, a
    product and one segment sum: O(nnz) work, with nnz = 4E for delta
    couplings, and a stack of M at m values of lambda the same calls.
    """

    def __init__(self, g: MetricGraph, coupling: VertexCoupling):
        blocks, _, groups, build_basis = _block_pass(g, coupling)
        self.basis = gb = build_basis()
        n = len(gb.labels)
        p0_at, p0 = [], []
        for same, _, idx, basis in groups:
            ops = np.array([blocks[p].operator() for p in same.tolist()])
            p0_at.append((idx[:, :, None] * n + idx[:, None, :]).ravel())
            p0.append((basis.conj().transpose(0, 2, 1) @ ops @ basis).ravel())

        per_coord = np.bincount(gb.coord, minlength=gb.size)
        first = np.cumsum(per_coord) - per_coord

        # Coordinate pairs (p, q) of each edge and the position of M[p, q]; an
        # edge's coordinates are consecutive from ``start``, (id, 0) first.
        index = g._index
        firsts = np.flatnonzero(index.end == 0)
        start = firsts[np.argsort(index.edge[firsts])]  # by edge position
        pa, pb, place, done = [], [], [], 0
        for model, at, _ in index.by_model:
            d = model.dim
            pos = start[at][:, None] + np.arange(d)
            pa.append(np.repeat(pos, d, axis=1).ravel())
            pb.append(np.tile(pos, d).ravel())
            # Entry (edge j, row r, column c) sits at row r, column j d + c of the group.
            side = np.arange(pos.size * d).reshape(d, len(at), d)
            place.append(done + side.transpose(1, 0, 2).ravel())
            done += side.size
        # M[pa[k], pb[k]] is entry k of the edges' blocks in group order, at place[k].
        pa, pb, place = map(np.concatenate, (pa, pb, place))

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
        self.src = place[pair[order]]
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
        """The values of P on the pattern for M = ``edge_blocks``, a list per
        group of ``by_model``: P0 minus the segment sums of the weighted M
        entries.  Blocks with leading axes, such as (m, d, d) at m values of
        lambda, give (m, nnz) values in the same calls as d x d give (nnz,)."""
        sides = [np.concatenate(group, axis=-1) for group in edge_blocks]
        m = np.concatenate([x.reshape(x.shape[:-2] + (-1,)) for x in sides], axis=-1)
        out = np.empty(m.shape[:-1] + self.p0.shape, dtype=complex)
        out[...] = self.p0
        out[..., self.segments] -= np.add.reduceat(m[..., self.src] * self.weights,
                                                   self.starts, axis=-1)
        return out

    def dense(self, values: np.ndarray) -> np.ndarray:
        """The n x n matrix with ``values`` on the pattern and zeros elsewhere,
        or the (m, n, n) stack of them for (m, nnz) values: one flat scatter."""
        return PatternMatrix(self.rows, self.cols, values, self.n).toarray()


def global_basis(g: MetricGraph, coupling: VertexCoupling) -> GlobalBasis:
    """Orthogonal basis of the coupled subspace, one group of vectors per
    vertex, as the sparse matrix B.

    Ordering is deterministic: vertices lexicographically, then basis column
    index; labels are the vertex id, suffixed ":k" when dim > 1.  The blocks
    must claim each boundary coordinate once (one ``bincount``); B's entries
    are the nonzeros of the blocks' bases, concatenated once (``_block_pass``).
    """
    return _block_pass(g, coupling)[3]()
