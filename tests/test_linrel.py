from __future__ import annotations

import numpy as np
import pytest

from graphspectra import linrel as lr


def random_operator(rng, n, k):
    sub = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    mat = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    return lr.OperatorOnSubspace.build(n, sub, mat)


def test_graph_of_zero_operator():
    op = lr.OperatorOnSubspace.full(np.zeros((2, 2)))
    rel = lr.relation_from_operator(op)
    expected = lr.LinearRelation.graph_of(np.zeros((2, 2)))
    assert rel.equals(expected)


def test_relation_on_proper_subspace():
    alpha = 1.7
    op = lr.OperatorOnSubspace.build(2, np.array([[1.0], [0.0]]), [[alpha]])
    rel = lr.relation_from_operator(op)
    span = np.array([[1, 0], [0, 0], [alpha, 0], [0, 1]], dtype=complex)
    assert rel.equals(lr.LinearRelation.from_span(2, span))
    assert rel.dim == 2


def test_pure_multivalued_relation():
    op = lr.OperatorOnSubspace.build(1, [], np.zeros((0, 0)))
    rel = lr.relation_from_operator(op)
    assert rel.dim == 1
    parts = rel.parts()
    assert parts.dom.shape[1] == 0
    assert parts.mul.shape[1] == 1
    # {0} x C is self-adjoint (it is the inverse of the zero operator).
    assert rel.is_self_adjoint()


def test_adjoint_of_hermitian_graph_is_itself():
    rng = np.random.default_rng(3)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    rel = lr.LinearRelation.graph_of(h)
    assert rel.adjoint().equals(rel)
    assert rel.is_self_adjoint()
    assert rel.is_symmetric()


def test_adjoint_duality_with_operator_adjoint():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        op = random_operator(rng, n, k) if k else lr.OperatorOnSubspace.build(n, [], np.zeros((0, 0)))
        lhs = lr.relation_from_operator(op).adjoint()
        rhs = lr.relation_from_operator(op.adjoint_operator())
        assert lr.subspace_distance(lhs.basis, rhs.basis) < 1e-10


def test_adjoint_involutive():
    rng = np.random.default_rng(5)
    op = random_operator(rng, 5, 3)
    rel = lr.relation_from_operator(op)
    assert rel.adjoint().adjoint().equals(rel)


def test_parts_of_invertible_graph():
    rng = np.random.default_rng(9)
    m = rng.normal(size=(3, 3)) + np.eye(3) * 5
    rel = lr.LinearRelation.graph_of(m)
    parts = rel.parts()
    assert parts.dom.shape[1] == 3
    assert parts.ran.shape[1] == 3
    assert parts.ker.shape[1] == 0
    assert parts.mul.shape[1] == 0


def test_parts_of_the_zero_relation():
    parts = lr.LinearRelation.from_span(2, np.zeros((4, 1))).parts()
    assert all(x.shape == (2, 0) for x in (parts.dom, parts.ran, parts.ker, parts.mul))


def test_parts_of_subspace_operator():
    op = lr.OperatorOnSubspace.build(2, np.array([[1.0], [0.0]]), [[0.0]])
    parts = lr.relation_from_operator(op).parts()
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    assert lr.subspace_distance(parts.dom, e1) < 1e-12
    assert lr.subspace_distance(parts.mul, e2) < 1e-12
    assert lr.subspace_distance(parts.ker, e1) < 1e-12


def test_inverse_swaps_parts():
    rng = np.random.default_rng(13)
    op = random_operator(rng, 4, 2)
    rel = lr.relation_from_operator(op)
    p, q = rel.parts(), rel.inverse().parts()
    assert lr.subspace_distance(p.dom, q.ran) < 1e-12
    assert lr.subspace_distance(p.ker, q.mul) < 1e-12


def test_resolvent_block_form():
    op = lr.OperatorOnSubspace.build(2, np.array([[1.0], [0.0]]), [[1.0]])
    rel = lr.relation_from_operator(op)
    res = rel.resolvent(0.0)
    assert np.allclose(res, np.diag([1.0, 0.0]), atol=1e-12)


def test_resolvent_singular_at_eigenvalue():
    op = lr.OperatorOnSubspace.build(2, np.array([[1.0], [0.0]]), [[1.0]])
    rel = lr.relation_from_operator(op)
    assert rel.resolvent(1.0) is None
    # A one-dimensional relation in C^2 (spanned by a 1-d vector) has no
    # everywhere-defined resolvent at any lambda.
    line = lr.LinearRelation.from_span(2, [1, 0, 0, 0])
    assert line.dim == 1 and line.resolvent(0.5j) is None


def test_resolvent_norm_at_i_bounded_by_one():
    rng = np.random.default_rng(17)
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = h + h.conj().T
        rel = lr.LinearRelation.graph_of(h)
        res = rel.resolvent(1j)
        assert np.linalg.norm(res, 2) <= 1.0 + 1e-10


def test_mul_equals_orthocomplement_of_adjoint_domain():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(0, n + 1))
        op = random_operator(rng, n, k) if k else lr.OperatorOnSubspace.build(n, [], np.zeros((0, 0)))
        rel = lr.relation_from_operator(op)
        rel.parts()  # raises internally if mul != (dom theta*)^perp


def test_operator_matrix_shape_validation():
    with pytest.raises(ValueError):
        lr.OperatorOnSubspace.build(3, np.eye(3)[:, :2], np.zeros((3, 3)))
    with pytest.raises(ValueError, match="spanning vectors must have 2n = 4 rows"):
        lr.LinearRelation.from_span(2, np.ones((3, 1)))
    with pytest.raises(ValueError, match="subspaces live in different ambient spaces"):
        lr.subspace_distance(np.eye(2), np.eye(3))
