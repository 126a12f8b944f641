from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import graphs as gr
from graphspectra.edges import Dirac, Laplacian
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


def test_blocks_carry_their_incidence_coordinates():
    from test_pairing import loop_and_double_edge
    star = gr.star(3, lengths=[1.0, 0.7, 1.3])
    dirac = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.5))
    couplings = [
        (star, cp.delta_coupling(star, gr.alpha_map(star, 0.4))),
        (dirac, cp.delta_coupling(dirac, gr.alpha_map(dirac, 0.4))),
        (star, cp.custom_coupling(star, {"center": ([[1.0, 1j, 0.5]], [[0.3]])})),
        loop_and_double_edge()[:2],
    ]
    for g, coup in couplings:
        for v, entries in gr.incidence_sets(g).items():
            assert coup.block(v).coords == tuple(e.coordinate for e in entries)


def test_block_operator_is_built_once():
    g = gr.star(3, lengths=1.0)
    vectors = [[1.0, 1j, 0.5], [0.3, -0.2j, 1.0]]
    coup = cp.custom_coupling(g, {"center": (vectors, np.array([[0.7, 0.2j], [-0.2j, -0.4]]))})
    block = coup.block("center")
    assert block.operator() is block.operator()
    unit = block.basis / np.linalg.norm(block.basis, axis=0)
    assert np.array_equal(block.operator(), unit @ block.matrix @ unit.conj().T)


def test_global_basis_rejects_coordinates_claimed_twice_or_not_at_all():
    g = gr.star(3, lengths=1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    leaf = coup.block("leaf00")  # owns ("e00", 1)
    # ("e00", 0) is the centre's too; ("e99", 1) leaves ("e00", 1) unclaimed.
    for coords in ((("e00", 0),), (("e99", 1),)):
        blocks = {**coup.blocks, "leaf00": replace(leaf, coords=coords)}
        with pytest.raises(ValueError, match="coupling size mismatch"):
            cp.global_basis(g, cp.VertexCoupling("delta", blocks))


def test_global_basis_and_oracle_reject_an_invalid_graph():
    from graphspectra import spectra as sp
    g = gr.star(3, lengths=1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    bad = replace(g, edges=g.edges[:2] + (replace(g.edges[2], length=0.0),))
    with pytest.raises(ValueError, match="invalid graph"):
        cp.global_basis(bad, coup)
    with pytest.raises(ValueError, match="invalid graph"):
        sp._CompiledOracle(bad, coup)


def test_compiles_read_the_blocks_not_the_incidence_sets(monkeypatch):
    from graphspectra import spectra as sp
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.0))
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.5))

    def rebuilt(_):
        raise AssertionError("incidence sets rebuilt")
    monkeypatch.setattr(gr, "incidence_sets", rebuilt)  # coupling no longer imports it
    cp.global_basis(g, coup)
    cp._CompiledPairing(g, coup)
    sp._CompiledOracle(g, coup)


@pytest.mark.parametrize("model", [Laplacian(), Dirac(1.0)])
def test_delta_blocks_have_a_complex_basis(model):
    # The oracle's complement SVD runs complex LAPACK for every vertex,
    # including a Dirac star's centre, whose phases at t = 0 are all real.
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=model)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.5))
    assert coup.block("center").coords == (("e00", 0), ("e01", 0), ("e02", 0))
    for v in g.vertices:
        assert coup.block(v).basis.dtype == complex, v


def test_a_graph_is_validated_once(monkeypatch):
    from graphspectra import spectra as sp
    runs = []
    validate = gr._validate
    monkeypatch.setattr(gr, "_validate", lambda g: runs.append(g) or validate(g))
    g = gr.random_graph(3, 12)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.5))
    sp.scan_spectrum(g, coup, (0.0, 5.0))
    cp.global_basis(g, coup)
    assert gr.validate_graph(g).ok and gr.incidence_sets(g) and gr.boundary_coordinates(g)
    assert runs == [g]


@pytest.mark.parametrize("as_lists", [False, True], ids=["tuples", "lists"])
def test_every_constructor_rejects_an_invalid_graph(as_lists):
    from graphspectra import spectra as sp
    g = gr.star(3, lengths=1.0)
    coup = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    edges = g.edges[:2] + (replace(g.edges[2], length=0.0),)
    bad = MetricGraph(list(g.vertices) if as_lists else g.vertices,
                      list(edges) if as_lists else edges)
    assert isinstance(bad.vertices, tuple) and isinstance(bad.edges, tuple)
    assert [c for c, _ in gr.validate_graph(bad).violations] == ["nonpositive length"]
    for build in (lambda: cp.delta_coupling(bad, gr.alpha_map(bad, 0.0)),
                  lambda: cp.custom_coupling(bad, {}),
                  lambda: cp.global_basis(bad, coup),
                  lambda: cp._CompiledPairing(bad, coup),
                  lambda: sp._CompiledOracle(bad, coup),
                  lambda: gr.incidence_sets(bad)):
        with pytest.raises(ValueError, match="invalid graph: nonpositive length"):
            build()
    assert gr.boundary_coordinates(bad) == gr.boundary_coordinates(g)


@pytest.mark.parametrize("model", [Laplacian(), Dirac(1.0)], ids=["laplacian", "dirac"])
def test_delta_blocks_are_the_bytes_of_single_blocks(model):
    # The per-degree stacked operators equal VertexBlock's own expression,
    # signed zeros included, for degrees 1 to 9 and alphas of both signs.
    g = gr.star(9, lengths=1.0, model=model)
    edges = g.edges + tuple(Edge(f"x{i}{j}", f"leaf0{i}", f"y{i}{j}", 0.5)
                            for i in range(1, 9) for j in range(i))
    g = MetricGraph(g.vertices + tuple(e.target for e in edges[9:]), edges, model)
    rng = np.random.default_rng(5)
    alpha = dict(zip(g.vertices, rng.uniform(-2.0, 2.0, len(g.vertices)).tolist()))
    alpha[g.vertices[3]] = 0.0
    coup = cp.delta_coupling(g, alpha)
    assert {len(b.coords) for b in coup.blocks.values()} == set(range(1, 10))
    for v, block in coup.blocks.items():
        alone = cp.VertexBlock(v, block.coords, block.basis.copy(), block.matrix.copy())
        assert block.operator().tobytes() == alone.operator().tobytes(), v
