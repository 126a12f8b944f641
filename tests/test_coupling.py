from __future__ import annotations

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import graphs as gr
from graphspectra.edges import Dirac
from graphspectra.graphs import Edge, MetricGraph


def test_delta_laplacian_block():
    g = gr.star(3, lengths=1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 6.0))
    block = coup.block("center")
    assert np.allclose(block.basis.ravel(), np.ones(3))
    assert np.allclose(block.matrix, [[2.0]])  # alpha / deg = 6 / 3


def test_delta_dirac_phases():
    g = MetricGraph(("m", "x", "y"),
                    (Edge("in", "x", "m", 1.0), Edge("out", "m", "y", 1.0)),
                    Dirac(1.0))
    coup = cp.delta_coupling(g, {"m": 1.0, "x": 0.0, "y": 0.0})
    vec = coup.block("m").basis.ravel()
    # incidence order: ("in", 1) then ("out", 0) -> phases (i, 1)
    assert np.allclose(vec, [1j, 1.0])


def test_delta_zero_alpha_is_zero_block():
    g = gr.star(2, lengths=1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    for v in g.vertices:
        assert np.allclose(coup.block(v).matrix, 0.0)


def test_delta_requires_all_alphas():
    g = gr.star(2, lengths=1.0)
    with pytest.raises(ValueError):
        cp.delta_coupling(g, {"center": 1.0})


def test_dirac_block_pairing_gives_alpha():
    g = gr.star(4, lengths=0.7, model=Dirac(2.0))
    alpha = gr.alpha_map(g, 3.5)
    coup = cp.delta_coupling(g, alpha)
    for v in g.vertices:
        b = coup.block(v).basis[:, 0]
        lb = coup.block(v).operator() @ b
        assert abs(np.vdot(b, lb) - alpha[v]) < 1e-12
        assert abs(np.vdot(b, b) - len(b)) < 1e-12  # norm^2 = deg


def test_custom_full_neumann_default():
    g = gr.star(3, lengths=1.0)
    coup = cp.custom_coupling(g, {})
    block = coup.block("center")
    assert block.dim == 3
    assert np.allclose(block.matrix, 0.0)


def test_custom_two_dim_subspace_accepted():
    g = gr.star(3, lengths=1.0)
    vectors = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]
    coup = cp.custom_coupling(g, {"center": (vectors, np.diag([1.0, -1.0]))})
    assert coup.block("center").dim == 2
    basis = coup.block("center").basis
    assert abs(np.vdot(basis[:, 0], basis[:, 1])) < 1e-12


def test_custom_gram_schmidt_in_input_order():
    g = gr.star(2, lengths=1.0)
    vectors = [[1.0, 0.0], [1.0, 1.0]]  # not orthogonal
    coup = cp.custom_coupling(g, {"center": (vectors, np.zeros((2, 2)))})
    basis = coup.block("center").basis
    assert np.allclose(basis[:, 0], [1.0, 0.0])
    assert abs(np.vdot(basis[:, 0], basis[:, 1])) < 1e-12


def test_custom_rejects_non_hermitian():
    g = gr.star(2, lengths=1.0)
    with pytest.raises(ValueError):
        cp.custom_coupling(g, {"center": ([[1.0, 0.0], [0.0, 1.0]],
                                          [[0.0, 1.0], [0.0, 0.0]])})


def test_custom_rejects_bad_sizes():
    g = gr.star(2, lengths=1.0)
    with pytest.raises(ValueError):
        cp.custom_coupling(g, {"center": ([[1.0, 0.0, 0.0]], [[0.0]])})
    with pytest.raises(ValueError):
        cp.custom_coupling(g, {"center": ([[1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]])})
    with pytest.raises(ValueError):
        cp.custom_coupling(g, {"center": ([[1.0, 0.0], [2.0, 0.0]],
                                          np.zeros((2, 2)))})


def test_global_basis_ordering_and_supports():
    g = gr.star(3, lengths=1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    gb = cp.global_basis(g, coup)
    assert list(gb.labels) == sorted(g.vertices)
    supports = [set(gb.coord[gb.element == i].tolist()) for i in range(len(gb.labels))]
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])
    assert gb.vertices[0] == "center"
    assert abs(gb.norms[0] ** 2 - 3.0) < 1e-12  # ||1_v||^2 = deg v


def test_global_basis_multidim_vertex():
    g = gr.star(3, lengths=1.0)
    vectors = [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0]]
    coup = cp.custom_coupling(g, {"center": (vectors, np.zeros((2, 2)))})
    gb = cp.global_basis(g, coup)
    labels = [label for label, v in zip(gb.labels, gb.vertices) if v == "center"]
    assert labels == ["center:0", "center:1"]


def test_global_basis_rejects_a_coupling_of_another_graph():
    coup = cp.delta_coupling(gr.star(3), gr.alpha_map(gr.star(3), 0.0))
    with pytest.raises(ValueError, match="coupling size mismatch"):
        cp.global_basis(gr.star(2), coup)
