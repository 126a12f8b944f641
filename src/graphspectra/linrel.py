"""Finite-dimensional linear relations (subspaces of C^n x C^n).

A relation is stored through an orthonormal basis of the subspace,
stacked as 2n-row columns (top block = first component, bottom block =
second component).  Subspace identities are decided by comparing
orthogonal projectors built from the stored bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "orthonormal_columns",
    "projector",
    "subspace_distance",
    "LinearRelation",
    "RelationParts",
    "OperatorOnSubspace",
    "relation_from_operator",
]

_RANK_RCOND = 1e-12


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Rank-revealing orthonormal basis of the column space of ``a``.

    Singular values below ``_RANK_RCOND`` times the largest count as zero.
    """
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.size == 0 or not np.any(a):
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > _RANK_RCOND * s[0]))
    return u[:, :rank]


def projector(basis: np.ndarray) -> np.ndarray:
    basis = np.atleast_2d(np.asarray(basis, dtype=complex))
    return basis @ basis.conj().T


def subspace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance of the orthogonal projectors onto col(a), col(b)."""
    n = a.shape[0]
    if b.shape[0] != n:
        raise ValueError("subspaces live in different ambient spaces")
    return float(np.linalg.norm(projector(a) - projector(b), ord=2))


def _complement(basis: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of col(basis) in C^dim."""
    if basis.shape[1] == 0:
        return np.eye(dim, dtype=complex)
    u, s, _ = np.linalg.svd(basis, full_matrices=True)
    rank = int(np.sum(s > _RANK_RCOND * s[0]))
    return u[:, rank:]


@dataclass(frozen=True)
class RelationParts:
    dom: np.ndarray
    ran: np.ndarray
    ker: np.ndarray
    mul: np.ndarray


@dataclass(frozen=True)
class LinearRelation:
    """Closed linear relation in C^n given by an orthonormal spanning basis."""

    n: int
    basis: np.ndarray  # (2n, m), orthonormal columns

    @classmethod
    def from_span(cls, n: int, vectors) -> "LinearRelation":
        vectors = np.asarray(vectors, dtype=complex)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        if vectors.shape[0] != 2 * n:
            raise ValueError(f"spanning vectors must have 2n = {2*n} rows")
        return cls(n, orthonormal_columns(vectors))

    @classmethod
    def graph_of(cls, matrix: np.ndarray) -> "LinearRelation":
        matrix = np.asarray(matrix, dtype=complex)
        n = matrix.shape[0]
        return cls.from_span(n, np.vstack([np.eye(n), matrix]))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def top(self) -> np.ndarray:
        return self.basis[: self.n]

    @property
    def bottom(self) -> np.ndarray:
        return self.basis[self.n:]

    def equals(self, other: "LinearRelation", tol: float = 1e-10) -> bool:
        return self.n == other.n and subspace_distance(self.basis, other.basis) < tol

    def adjoint(self) -> "LinearRelation":
        """Adjoint relation: the orthogonal complement of J(theta), J(f,g)=(g,-f)."""
        flipped = np.vstack([self.bottom, -self.top])
        return LinearRelation(self.n, _complement(flipped, 2 * self.n))

    def inverse(self) -> "LinearRelation":
        return LinearRelation(self.n, np.vstack([self.bottom, self.top]))

    def shift(self, lam: complex) -> "LinearRelation":
        """The relation theta - lam = {(f, f' - lam f)}."""
        return LinearRelation.from_span(
            self.n, np.vstack([self.top, self.bottom - lam * self.top])
        )

    def parts(self) -> RelationParts:
        dom = orthonormal_columns(self.top)
        ran = orthonormal_columns(self.bottom)
        # ker: first components of elements with vanishing second component.
        ker = orthonormal_columns(self.top @ _null_space(self.bottom))
        mul = orthonormal_columns(self.bottom @ _null_space(self.top))
        # Internal consistency: mul(theta) = (dom theta*)^perp.
        dom_adj = self.adjoint().parts_domain()
        if subspace_distance(mul, _complement(dom_adj, self.n)) > 1e-10:
            raise AssertionError("mul(theta) != dom(theta*)^perp; basis degenerated")
        return RelationParts(dom=dom, ran=ran, ker=ker, mul=mul)

    def parts_domain(self) -> np.ndarray:
        return orthonormal_columns(self.top)

    def is_symmetric(self, tol: float = 1e-10) -> bool:
        adj = self.adjoint()
        # theta subset of theta*: projector of theta* acts as identity on theta.
        return float(np.linalg.norm(projector(adj.basis) @ self.basis - self.basis, ord=2)) < tol

    def is_self_adjoint(self, tol: float = 1e-10) -> bool:
        return self.equals(self.adjoint(), tol)

    def resolvent(self, lam: complex):
        """(theta - lam)^{-1} as a matrix, or None when it is not an
        everywhere-defined single-valued operator."""
        inv = self.shift(lam).inverse()
        if inv.dim != self.n:
            return None
        top = inv.top
        s = np.linalg.svd(top, compute_uv=False)
        if s.size < self.n or s[-1] < 1e-10 * max(1.0, s[0]):
            return None
        return inv.bottom @ np.linalg.inv(top)


def _null_space(a: np.ndarray) -> np.ndarray:
    a = np.atleast_2d(a)
    m = a.shape[1]
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    if not np.any(a):
        return np.eye(m, dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(s > _RANK_RCOND * s[0]))
    return vh[rank:].conj().T


@dataclass(frozen=True)
class OperatorOnSubspace:
    """An operator L acting within a subspace of C^n.

    ``subspace`` holds orthonormal columns spanning the subspace; ``matrix``
    is the representation of L with respect to those columns.
    """

    n: int
    subspace: np.ndarray
    matrix: np.ndarray

    @classmethod
    def build(cls, n: int, subspace_vectors, matrix) -> "OperatorOnSubspace":
        basis = orthonormal_columns(np.asarray(subspace_vectors, dtype=complex).reshape(n, -1)) \
            if np.asarray(subspace_vectors).size else np.zeros((n, 0), dtype=complex)
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        k = basis.shape[1]
        if matrix.shape != (k, k):
            raise ValueError(f"matrix must be {k}x{k} for a {k}-dimensional subspace")
        return cls(n, basis, matrix)

    @classmethod
    def full(cls, matrix) -> "OperatorOnSubspace":
        matrix = np.asarray(matrix, dtype=complex)
        return cls(matrix.shape[0], np.eye(matrix.shape[0], dtype=complex), matrix)

    def adjoint_operator(self) -> "OperatorOnSubspace":
        return OperatorOnSubspace(self.n, self.subspace, self.matrix.conj().T)


def relation_from_operator(op: OperatorOnSubspace) -> LinearRelation:
    """The relation {(f, Lf + g) : f in dom L, g orthogonal to the subspace}."""
    n, basis, mat = op.n, op.subspace, op.matrix
    graph_part = np.vstack([basis, basis @ mat])
    perp = _complement(basis, n)
    mul_part = np.vstack([np.zeros_like(perp), perp])
    span = np.hstack([graph_part, mul_part])
    rel = LinearRelation.from_span(n, span)
    if rel.dim != n:
        raise AssertionError("relation of an operator on a subspace must have dim n")
    return rel
