"""The boundary pairing P = B^H (L - M) B and the three matrices read off it:
the secular matrix K(lambda), the discrete data (b, c, m) and L_min."""

from __future__ import annotations

import math
import time

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


PROBLEMS = [delta_random_tree, dirac_star_custom_centre, halfline_graph,
            loop_and_double_edge]


def dense_pairing(gb, coupling, edge_blocks):
    """Reference: form L and M as size x size matrices and B column by column."""
    pos = {coord: p for p, coord in enumerate(gb.coords)}
    lop = np.zeros((gb.size, gb.size), dtype=complex)
    mop = np.zeros_like(lop)
    for el in gb.elements:
        idx = list(el.positions)
        lop[np.ix_(idx, idx)] = coupling.block(el.vertex).operator()
    for eid, block in edge_blocks.items():
        idx = [p for (e, _), p in pos.items() if e == eid]
        mop[np.ix_(idx, idx)] = block
    basis = np.column_stack([el.embed(gb.size) for el in gb.elements])
    return basis.conj().T @ (lop - mop) @ basis


@pytest.mark.parametrize("make", PROBLEMS)
def test_pairing_matches_dense_assembly(make):
    g, coup, _ = make()
    gb = cp.global_basis(g, coup)
    rng = np.random.default_rng(5)
    blocks = {}
    for e in g.edges:
        k = len(e.endpoints())
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        blocks[e.id] = a + a.conj().T
    compiled = cp._CompiledPairing(gb, coup)
    got = compiled.dense(compiled(blocks))
    want = dense_pairing(gb, coup, blocks)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_allclose(got, got.conj().T, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    # One symmetric pattern in row-major order; ``mirror`` maps each entry
    # to its transpose, and nothing outside it is nonzero.
    rows, cols, n = compiled.rows, compiled.cols, len(gb.elements)
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
    norms = np.array([el.norm for el in cp.global_basis(g, coup).elements])
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
    gb = cp.global_basis(g, coup)
    norms = np.array([el.norm for el in gb.elements])
    compiled = cp._CompiledPairing(gb, coup)
    for lam in (-0.7, 0.4 + 0.3j):
        blocks = {e.id: em.weyl(gr.edge_model_for(g.model, e), e.length, lam)
                  for e in g.edges}
        fresh = cp._CompiledPairing(gb, coup)
        want = fresh.dense(fresh(blocks)) / np.outer(norms, norms)
        assert np.array_equal(sp.krein_matrix(g, coup, lam), want)
        assert np.array_equal(sp.krein_matrix(g, coup, lam, _pairing=compiled), want)


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
