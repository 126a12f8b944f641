"""The boundary pairing P = B^H (L - M) B and the three matrices read off it:
the secular matrix K(lambda), the discrete data (b, c, m) and L_min."""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import discrete as dc
from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import regularize as rg
from graphspectra import spectra as sp
from graphspectra.edges import Dirac
from graphspectra.graphs import Edge, MetricGraph


def delta_random_tree():
    g = gr.random_graph(7, 15)
    rng = np.random.default_rng(3)
    alpha = {v: float(rng.normal()) for v in g.vertices}
    return g, cp.delta_coupling(g, alpha), None


def dirac_delta_tree():
    # Complex phases at every target end, and many one-vector blocks of
    # each basis shape (degree, 1).
    g = gr.random_graph(4, 12, model=Dirac(1.3))
    rng = np.random.default_rng(9)
    return g, cp.delta_coupling(g, {v: float(rng.normal()) for v in g.vertices}), None


def dirac_star_custom_centre():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.5))
    vectors = [[1.0, 1j, 0.5], [0.3, -0.2j, 1.0 + 0.4j]]
    matrix = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, -0.4]])
    return g, cp.custom_coupling(g, {"center": (vectors, matrix)}), None


def halfline_graph():
    g = MetricGraph(("c", "b"), (Edge("e", "c", "b", 1.0),
                                 Edge("h", "c", None, math.inf)))
    return g, cp.delta_coupling(g, {"c": -2.0, "b": 0.5}), -1.0


def loop_and_double_edge():
    # Five coordinates at b, shared by both elements of its 2-dim block; the
    # loop puts both ends of one edge on the same elements.
    g = MetricGraph(("a", "b", "c"), (Edge("loop", "b", "b", 1.1),
                                      Edge("ab1", "a", "b", 0.8),
                                      Edge("ab2", "a", "b", 1.4),
                                      Edge("bc", "b", "c", 0.6),
                                      Edge("ca", "c", "a", 1.7)))
    vectors = [[1.0, 0.5j, -0.3, 0.2 + 0.1j, 1.0], [0.4j, 1.0, 0.7, -1.0j, 0.0]]
    matrix = np.array([[0.3, 0.1 - 0.6j], [0.1 + 0.6j, -1.2]])
    return g, cp.custom_coupling(g, {"b": (vectors, matrix)}), None


PROBLEMS = [delta_random_tree, dirac_delta_tree, dirac_star_custom_centre, halfline_graph,
            loop_and_double_edge]


def dense_basis(g, coupling):
    """Reference: B column by column from the incidence sets and the vertex
    blocks, and the coupling operator L, both over the boundary coordinates."""
    pos = {coord: p for p, coord in enumerate(gr.boundary_coordinates(g))}
    inc = gr.incidence_sets(g)
    lop = np.zeros((len(pos), len(pos)), dtype=complex)
    columns = []
    for v in sorted(g.vertices):
        block = coupling.block(v)
        idx = [pos[e.coordinate] for e in inc[v]]
        lop[np.ix_(idx, idx)] = block.operator()
        for k in range(block.dim):
            col = np.zeros(len(pos), dtype=complex)
            col[idx] = block.basis[:, k]
            columns.append(col)
    return np.column_stack(columns), lop


def dense_pairing(g, coupling, edge_blocks):
    """Reference: form B, L and M as dense matrices and multiply."""
    basis, lop = dense_basis(g, coupling)
    coords = gr.boundary_coordinates(g)
    mop = np.zeros_like(lop)
    for eid, block in edge_blocks.items():
        idx = [p for p, (e, _) in enumerate(coords) if e == eid]
        mop[np.ix_(idx, idx)] = block
    return basis.conj().T @ (lop - mop) @ basis


@pytest.mark.parametrize("make", PROBLEMS)
def test_pairing_matches_dense_assembly(make):
    g, coup, _ = make()
    rng = np.random.default_rng(5)
    blocks = {}
    for e in g.edges:
        k = len(e.endpoints())
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        blocks[e.id] = a + a.conj().T
    compiled = cp._CompiledPairing(g, coup)
    got = compiled.dense(compiled(blocks))
    want = dense_pairing(g, coup, blocks)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_allclose(got, got.conj().T, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    # One symmetric pattern in row-major order; ``mirror`` maps each entry
    # to its transpose, and nothing outside it is nonzero.
    rows, cols, n = compiled.rows, compiled.cols, len(compiled.basis.labels)
    assert np.all(np.diff(rows * n + cols) > 0)
    assert np.array_equal(rows[compiled.mirror], cols)
    assert np.array_equal(cols[compiled.mirror], rows)
    outside = np.ones((n, n), dtype=bool)
    outside[rows, cols] = False
    assert not np.any(want[outside])


@pytest.mark.parametrize("make", PROBLEMS)
def test_krein_lmin_and_weights_share_one_pairing(make):
    g, coup, lam0 = make()
    reg = rg.build_regularization(g, lam0)
    dl = dc.build_discrete(g, coup, reg)
    norms = cp.global_basis(g, coup).norms
    kmat = sp.krein_matrix(g, coup, reg.lambda0)

    scale = norms / np.sqrt(dl.m)
    expected = scale[:, None] * kmat * scale[None, :]
    lmin = np.asarray(dc.lmin_matrix(g, coup, reg))
    assert np.max(np.abs(lmin - expected)) <= 1e-12 * np.max(np.abs(expected))

    raw = -(norms[:, None] * kmat * norms[None, :]).real
    tol = 1e-12 * np.max(np.abs(raw))
    for i in range(dl.size):
        for j in range(i + 1, dl.size):
            assert abs(dl.weight(i, j) - raw[i, j]) <= tol


@pytest.mark.parametrize("make", PROBLEMS)
def test_compiled_krein_matches_one_shot_pairing(make):
    g, coup, _ = make()
    compiled = cp._CompiledPairing(g, coup)
    norms = compiled.basis.norms
    for lam in (-0.7, 0.4 + 0.3j):
        blocks = {e.id: em.weyl(gr.edge_model_for(g.model, e), e.length, lam)
                  for e in g.edges}
        fresh = cp._CompiledPairing(g, coup)
        want = fresh.dense(fresh(blocks)) / np.outer(norms, norms)
        assert np.array_equal(sp.krein_matrix(g, coup, lam), want)
        assert np.array_equal(sp.krein_matrix(g, coup, lam, _pairing=compiled), want)


def wide_star():
    # Twelve terms in the centre's diagonal entry: numpy sums more than eight
    # pairwise, which the stacked segment sums must do alike.
    g = gr.star(12, lengths=np.linspace(0.5, 1.6, 12).tolist())
    return g, cp.delta_coupling(g, gr.alpha_map(g, -0.3)), None


@pytest.mark.parametrize("make", PROBLEMS + [wide_star])
def test_krein_matrix_on_a_lambda_list_stacks_the_scalar_calls(make):
    # One call over real and complex lambda values (below 0 only on the
    # half-line graph, whose edge spectrum is the ray) gives the scalar
    # calls' matrices stacked, byte for byte, with and without a compiled
    # pairing; the pairing's values stack as well.
    g, coup, _ = make()
    compiled = cp._CompiledPairing(g, coup)
    lams = [-0.7, -2.3, 0.4 + 0.3j, -1.1 - 0.2j] + ([] if g.has_half_line else [0.9, 3.1])
    want = np.array([sp.krein_matrix(g, coup, lam) for lam in lams])
    for got in (sp.krein_matrix(g, coup, lams), sp.krein_matrix(g, coup, lams, _pairing=compiled)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    models = [(e.id, gr.edge_model_for(g.model, e), e.length) for e in g.edges]
    single = [compiled({eid: em.weyl(model, ell, lam) for eid, model, ell in models})
              for lam in lams]
    stack = compiled({eid: em.weyl(model, ell, lams) for eid, model, ell in models})
    assert stack.tobytes() == np.array(single).tobytes()


@pytest.mark.parametrize("make", PROBLEMS)
def test_blocks_may_list_their_coordinates_in_any_order(make):
    # Each block of degree >= 2 lists its coordinates in reverse, its basis
    # rows reversed to match: B has the same entries, and P, K and the
    # discrete data agree to rounding (the products sum in another order).
    g, coup, lam0 = make()
    turned = cp.VertexCoupling(coup.flavor, {
        v: replace(b, coords=b.coords[::-1], basis=b.basis[::-1]) for v, b in coup.blocks.items()})
    assert any(turned.block(v).coords != coup.block(v).coords for v in g.vertices)
    want, got = cp.global_basis(g, coup), cp.global_basis(g, turned)
    for field in ("coords", "labels", "vertices", "norms", "coord", "element", "value"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13 * max(1.0, np.max(np.abs(b))))

    rng = np.random.default_rng(2)
    blocks = {e.id: rng.normal(size=(len(e.endpoints()),) * 2) for e in g.edges}
    blocks = {eid: a + a.T for eid, a in blocks.items()}
    fresh, compiled = cp._CompiledPairing(g, turned), cp._CompiledPairing(g, coup)
    close(fresh.dense(fresh(blocks)), compiled.dense(compiled(blocks)))
    close(sp.krein_matrix(g, turned, -0.7), sp.krein_matrix(g, coup, -0.7))
    reg = rg.build_regularization(g, lam0)
    dl, dl0 = dc.build_discrete(g, turned, reg), dc.build_discrete(g, coup, reg)
    assert np.array_equal(dl.m, dl0.m) and dl.b.keys() == dl0.b.keys()
    close(dl.c, dl0.c)
    close(np.array(list(dl.b.values())), np.array(list(dl0.b.values())))


def test_basis_layout_and_measure():
    g, coup, lam0 = loop_and_double_edge()
    gb = cp.global_basis(g, coup)
    dense, _ = dense_basis(g, coup)

    # Entries sorted by coordinate, elements in order within one coordinate,
    # and exactly the nonzero entries of B (the zeros of the identity blocks
    # at a and c are absent).
    assert np.all(np.diff(gb.coord) >= 0)
    same = np.diff(gb.coord) == 0
    assert np.all(np.diff(gb.element)[same] > 0)
    assert sorted(zip(gb.coord.tolist(), gb.element.tolist())) == \
        sorted(zip(*(x.tolist() for x in np.nonzero(dense))))
    assert np.array_equal(gb.value, dense[gb.coord, gb.element])
    np.testing.assert_allclose(gb.norms, np.linalg.norm(dense, axis=0), rtol=1e-15, atol=0)

    reg = rg.build_regularization(g, lam0)
    r2 = [reg.norm_prime[eid] for eid, _ in gb.coords]
    want = [sum(r2[p] * abs(dense[p, i]) ** 2 for p in range(gb.size))
            for i in range(dense.shape[1])]
    np.testing.assert_allclose(dc.build_discrete(g, coup, reg).m, want, rtol=1e-15, atol=0)


def test_full_subspace_star_stays_fast():
    g = gr.star(60, lengths=np.linspace(0.5, 1.5, 60))
    coup = cp.custom_coupling(g, {})
    start = time.perf_counter()
    kmat = sp.krein_matrix(g, coup, -0.5)
    krein_s = time.perf_counter() - start
    assert abs(np.linalg.eigvalsh(kmat)[0] - 0.12371398941022349) <= 1e-12
    assert krein_s < 1.0

    reg = rg.build_regularization(g)
    start = time.perf_counter()
    dc.build_discrete(g, coup, reg)
    assert time.perf_counter() - start < 1.0
