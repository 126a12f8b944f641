"""The compiled RK4 oracle: its matrix A(lambda) against a per-incidence
reference assembly, its realness and its one evaluator, the grid candidate
scan against a loop over the grid, the lockstep polish against the same
coroutines driven one at a time, its RK4 transfer matrices against
sequential stepping, the number of determinant and transfer calls it
takes, its leaf-to-root grid pass against LAPACK's determinants, and its
roots on relabeled graphs, whose layout differs, with Brent's steps on det
and -det."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import graphs as gr
from graphspectra import spectra as sp
from graphspectra.edges import Dirac, Laplacian
from graphspectra.graphs import Edge, MetricGraph
from test_pairing import loop_and_double_edge


def reference_matrix(g, coupling, transfers, index):
    """Vertex-condition rows written out per incidence, in phase-rotated
    coordinates: comp^H Gamma0 = 0 and unit^H Gamma1 - mat unit^H Gamma0 = 0,
    with each basis column rotated by the conjugate phase of its first
    nonzero entry and mat conjugated to match.  Vertices are laid out in
    sorted order and edges in graph order, as the compile lays them out."""
    col_of = {e.id: 2 * k for k, e in enumerate(g.edges)}
    n = 2 * len(g.edges)
    dirac = isinstance(g.model, Dirac)
    inc = gr.incidence_sets(g)
    rows = []
    for v in sorted(g.vertices):
        entries = inc[v]
        phases = np.array([1.0 if (not dirac or e.endpoint == 0) else 1.0j
                           for e in entries])
        block = coupling.block(v)
        basis = phases.conj()[:, None] * block.basis
        lead = np.array([col[np.flatnonzero(col)[0]] for col in basis.T])
        basis = basis * (lead.conj() / np.abs(lead))
        matrix = np.diag(lead / np.abs(lead)) @ block.matrix @ np.diag(lead.conj() / np.abs(lead))
        unit = basis / np.linalg.norm(basis, axis=0)
        # The rotation keeps the coupling operator (in rotated coordinates).
        np.testing.assert_allclose(unit @ matrix @ unit.conj().T,
                                   phases.conj()[:, None] * block.operator() * phases,
                                   rtol=0, atol=1e-14)
        q = np.linalg.svd(basis, full_matrices=True)[0]
        comp = q[:, basis.shape[1]:]
        g0 = np.zeros((len(entries), n), dtype=complex)
        g1 = np.zeros((len(entries), n), dtype=complex)
        for i, entry in enumerate(entries):
            col = col_of[entry.edge]
            t_mat = transfers[entry.edge][index]
            first, second = ((np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                             if entry.endpoint == 0 else (t_mat[0], t_mat[1]))
            g0[i, col:col + 2] = first
            g1[i, col:col + 2] = (g.model.c if dirac else 1.0) * entry.sign * second
        for k in range(comp.shape[1]):
            rows.append(comp[:, k].conj() @ g0)
        proj0 = unit.conj().T @ g0
        proj1 = unit.conj().T @ g1
        for i in range(unit.shape[1]):
            rows.append(proj1[i] - matrix[i] @ proj0)
    return np.array(rows)


def delta(g, alpha):
    return cp.delta_coupling(g, gr.alpha_map(g, alpha))


def laplacian_star():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    return g, delta(g, 0.0), (-2.0, 3.5, 20.0)


def dirac_star():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.0))
    return g, delta(g, 0.5), (-2.0, 0.3, 1.7)


def dirac_star_custom_centre():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.5))
    vectors = [[1.0, 1j, 0.5], [0.3, -0.2j, 1.0 + 0.4j]]
    matrix = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, -0.4]])
    return g, cp.custom_coupling(g, {"center": (vectors, matrix)}), (-3.0, 0.4, 2.5)


def short_edge_chain():
    g = gr.geometric_chain(0.5, 0.5, 8)
    return g, delta(g, 0.3), (-1.0, 5.0, 40.0)


@pytest.mark.parametrize("make", [laplacian_star, dirac_star,
                                  dirac_star_custom_centre, short_edge_chain])
@pytest.mark.parametrize("mesh", [2000, 4000])
def test_compiled_matrix_matches_reference(make, mesh):
    g, coupling, lams = make()
    oracle = sp._CompiledOracle(g, coupling)
    edges = sorted(g.edges, key=lambda e: e.id)
    stack = sp._transfer_stack(g.model, np.array([e.length for e in edges]), lams, mesh)
    transfers = {e.id: t for e, t in zip(edges, stack)}
    for i, lam in enumerate(lams):
        want = reference_matrix(g, coupling, transfers, i)
        got = oracle.matrices([lam], mesh)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # A grid block assembles the same matrices as one lambda at a time.
    block = oracle.matrices(np.array(lams), mesh).copy()
    for i, lam in enumerate(lams):
        np.testing.assert_array_equal(block[i], oracle.matrices([lam], mesh)[0])


def rk4_sequential(a, lengths, mesh):
    """u' = A u from u(0) = I, stepped 2^k times by the k1 ... k4 formulas of
    classical RK4, with k = max(1, ceil(log2 mesh)); ``a`` holds one 2 x 2
    matrix per lambda, the result one transfer matrix per (edge, lambda)."""
    steps = 1 << max(1, math.ceil(math.log2(mesh)))
    h = (np.asarray(lengths) / steps)[:, None, None, None]
    u = np.broadcast_to(np.eye(2), (len(lengths),) + a.shape).copy()
    for _ in range(steps):
        k1 = a @ u
        k2 = a @ (u + h / 2 * k1)
        k3 = a @ (u + h / 2 * k2)
        k4 = a @ (u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def edge_systems(model, lams):
    """The first-order systems of the oracle: (psi, psi') for the Laplacian,
    (psi1, i psi2) for the Dirac operator."""
    lams = np.asarray(lams, dtype=float)
    a = np.zeros(lams.shape + (2, 2))
    if isinstance(model, Dirac):
        c = model.c
        a[:, 0, 1] = (lams + c * c / 2) / c
        a[:, 1, 0] = -(lams - c * c / 2) / c
    else:
        a[:, 0, 1] = 1.0
        a[:, 1, 0] = -lams
    return a


@pytest.mark.parametrize("model, lams", [
    # below the threshold w = 0, exactly at it, and above it
    (Laplacian(), [-30.0, -2.0, 0.0, 2.0, 30.0]),
    (Dirac(1.0), [-6.5, -0.5, -0.25, 0.0, 0.5, 6.5]),
    (Dirac(3.0), [-10.5, -4.5, -2.25, 0.0, 4.5, 10.5]),
])
@pytest.mark.parametrize("mesh", [1, 2000])
def test_transfer_stack_matches_sequential_rk4(model, lams, mesh):
    lengths = np.array([1e-6, 1e-3, 0.1, 0.7, 3.0])
    want = rk4_sequential(edge_systems(model, lams), lengths, mesh)
    got = sp._transfer_stack(model, lengths, lams, mesh)
    assert got.shape == (len(lengths), len(lams), 2, 2)
    scale = np.max(np.abs(want), axis=(2, 3), keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


def test_grid_computes_transfers_once_per_chunk(monkeypatch):
    # The depth-40 chain's 80 x 80 matrices fill a block every 5 samples; the
    # transfers of a 600-point grid are computed in a few chunks, not once
    # per block (120 times).
    calls = []
    stack = sp._transfer_stack

    def counted(*args):
        calls.append(len(args[2]))
        return stack(*args)

    monkeypatch.setattr(sp, "_transfer_stack", counted)
    g = gr.geometric_chain(0.5, 0.5, 40)
    oracle = sp._CompiledOracle(g, delta(g, 0.3))
    dets = oracle.evaluate("det", np.linspace(-1.0, 60.0, 600), 2000)
    assert len(dets) == 600 and sum(calls) == 600
    assert len(calls) <= 10


def custom_delta_dirac():
    """The delta Dirac coupling written out as a custom coupling, whose
    basis vectors carry the phases (1, i)."""
    g = MetricGraph(("a", "m", "z"),
                    (Edge("e1", "a", "m", 1.0), Edge("e2", "m", "z", 0.7)), Dirac(1.0))
    coupling = cp.delta_coupling(g, {"a": 0.5, "m": -1.0, "z": 0.2})
    spec = {v: (block.basis.T, block.matrix) for v, block in coupling.blocks.items()}
    return g, cp.custom_coupling(g, spec), (-3.0, 0.1, 3.0)


def phase_rotated_laplacian_star():
    """``laplacian_star``'s delta coupling with every basis vector times i."""
    g, coupling, lams = laplacian_star()
    spec = {v: (1j * block.basis.T, block.matrix) for v, block in coupling.blocks.items()}
    return g, cp.custom_coupling(g, spec), lams


def test_basis_phases_keep_the_oracle_real():
    g, coupling, _ = laplacian_star()
    _, rotated, _ = phase_rotated_laplacian_star()
    assert sp._CompiledOracle(g, rotated).real
    want = sp.oracle_eigenvalues(g, coupling, (-1.0, 25.0)).values
    got = sp.oracle_eigenvalues(g, rotated, (-1.0, 25.0)).values
    assert len(want) == 5
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_oracle_realness_and_evaluate():
    for make in (laplacian_star, dirac_star, short_edge_chain, random_tree,
                 custom_delta_dirac):
        g, coupling, _ = make()
        assert sp._CompiledOracle(g, coupling).real
    g, coupling, _ = dirac_star_custom_centre()
    assert not sp._CompiledOracle(g, coupling).real
    # The grid block and single values give bit-identical answers, across
    # several blocks for the chain.
    for make in (laplacian_star, dirac_star_custom_centre, short_edge_chain):
        g, coupling, lams = make()
        oracle = sp._CompiledOracle(g, coupling)
        grid = np.linspace(min(lams), max(lams), 600)
        dets = oracle.evaluate("det", grid, 2000)
        sigmas = oracle.evaluate("sigma", grid, 2000)
        assert len(dets) == len(sigmas) == 600
        assert np.isrealobj(np.array(dets)) == oracle.real
        for i in (0, 1, 299, 598, 599):
            assert oracle.evaluate("det", [grid[i]], 2000) == [dets[i]]
            ratio, sv = oracle.evaluate("sigma", [grid[i]], 2000)[0]
            assert ratio == sigmas[i][0]
            np.testing.assert_array_equal(sv, sigmas[i][1])


def test_oracle_determinants_per_root(monkeypatch):
    calls = []
    det = np.linalg.det

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    g = gr.random_graph(7, 15)
    oracle = sp.oracle_eigenvalues(g, delta(g, 0.0), (-1.0, 20.0))
    assert len(oracle.roots) > 0
    assert len(calls) <= 25 * len(oracle.roots)
    # Lockstep rounds: one stacked call per round and kind, not one per root.
    assert len(calls) <= 60


def grid_candidates_loop(grid, dets, real_ok):
    """The candidate scan as a loop over the grid, kept as the reference."""
    candidates = []
    if real_ok:
        vals = dets.real.copy()
        for i in range(len(grid) - 1):
            if vals[i] == 0.0:
                vals[i] = 1e-300
            if np.sign(vals[i]) != np.sign(vals[i + 1]):
                candidates.append((grid[i], grid[i + 1], "sign"))
        mags = np.abs(vals)
        for i in range(1, len(grid) - 1):
            if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]:
                covered = any(lo <= grid[i] <= hi for lo, hi, _ in candidates)
                if not covered:
                    candidates.append((grid[i - 1], grid[i + 1], "min"))
    else:
        mags = np.abs(dets)
        for i in range(1, len(grid) - 1):
            if mags[i] < mags[i - 1] and mags[i] < mags[i + 1]:
                candidates.append((grid[i - 1], grid[i + 1], "min"))
    return candidates


def test_grid_candidates_match_loop():
    # Exact zeros (leading, trailing, in a run, between equal signs), minima
    # inside sign brackets and minima two samples apart.
    crafted = np.array([0.0, 3.0, 0.0, -1.0, 0.0, 0.0, 2.0, 1.0, 1.5, 0.5, 2.0,
                        0.1, -3.0, 0.3, 0.05, 0.3, 0.04, 0.3, 0.0, 0.2, -4.0, 0.0])
    grid = np.linspace(-1.0, 1.0, len(crafted))
    want = grid_candidates_loop(grid, crafted, True)
    assert sp._grid_candidates(grid, crafted, True) == want
    assert {kind for _, _, kind in want} == {"sign", "min"}
    assert sp._grid_candidates(grid, crafted + 0.5j, False) == \
        grid_candidates_loop(grid, crafted + 0.5j, False)
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 3, 50, 600):
        grid = np.linspace(-2.0, 5.0, size)
        for _ in range(20):
            vals = rng.choice([0.0, 1e-300, -1e-300, 0.5, -0.5, 2.0, -2.0], size) * \
                rng.uniform(0.5, 1.0, size)
            for dets, real_ok in ((vals, True), (vals.astype(complex), True),
                                  (vals + 1j * vals[::-1], False)):
                assert (sp._grid_candidates(grid, dets, real_ok)
                        == grid_candidates_loop(grid, dets, real_ok))


def random_tree():
    g = gr.random_graph(7, 15)
    return g, delta(g, 0.0), (-1.0, 20.0)


@pytest.mark.parametrize("make", [laplacian_star, dirac_star, dirac_star_custom_centre,
                                  short_edge_chain, random_tree])
def test_lockstep_matches_one_at_a_time(make):
    g, coupling, lams = make()
    window, mesh, tol = (min(lams), max(lams)), 2000, 1e-8
    oracle = sp._CompiledOracle(g, coupling)
    grid = np.linspace(*window, 600)
    dets = np.array(oracle.evaluate("det", grid, mesh))
    candidates = sp._grid_candidates(grid, dets, oracle.real)

    def tasks():
        return [sp._oracle_root(lo, hi, kind, window, mesh, tol)
                for lo, hi, kind in candidates]

    together = oracle.drive(tasks())
    assert any(root is not None for root in together)
    assert together == [oracle.drive([task])[0] for task in tasks()]


def test_drive_raises_the_error_of_the_first_failing_task():
    g, coupling, _ = laplacian_star()
    oracle = sp._CompiledOracle(g, coupling)

    def task(result, rounds, fail=False):
        value = None
        for k in range(rounds):
            value = yield ("det" if k % 2 else "sigma"), 1.0 + k, 2000
        if fail:
            raise sp.OracleConvergenceError(result)
        return result, value

    results = oracle.drive([task("a", 2), task("b", 0), task("c", 1)])
    assert [r[0] for r in results] == ["a", "b", "c"]
    assert results[0][1] == np.linalg.det(oracle.matrices([2.0], 2000)[0]).real
    assert results[1][1] is None and len(results[2][1]) == 2  # (ratio, sv)
    # The second task fails in round 5, the third in round 1: the second wins.
    with pytest.raises(sp.OracleConvergenceError, match="second"):
        oracle.drive([task("first", 2), task("second", 5, True), task("third", 1, True)])


def test_sign_bracket_is_widened_and_a_moved_root_is_refused():
    # A bracket without a sign change is widened (each side by its width,
    # inside the window) until the sign changes, then polished.
    refine = sp._oracle_refine(0.4, 0.5, "sign", (0.0, 1.0), 2000, 1e-8)
    lams = []
    try:
        request = next(refine)
        while True:
            lams.append(request[1])
            request = refine.send(request[1] - 0.25)
    except StopIteration as stop:
        root = stop.value
    assert lams[:6] == pytest.approx([0.4, 0.5, 0.3, 0.6, 0.0, 0.9], abs=1e-12)
    assert root == pytest.approx(0.25, abs=1e-11)
    # On a 200-long interval the root near 0.41477 moves by 1.013e-7 under
    # mesh doubling, past the 1e-7 bracket of the second polish: that
    # bracket is widened, and the move is refused.
    g = gr.interval(200.0)
    coupling = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    with pytest.raises(sp.OracleConvergenceError,
                       match=r"root at 0\.41477023296384 moved by 1\.013e-07"):
        sp.oracle_eigenvalues(g, coupling, (-1.0, 1.0))


# ------------------------------------------------------------- tree pass

def depth40_chain():
    g = gr.geometric_chain(0.5, 0.5, 40)
    return g, delta(g, 0.3), (-1.0, 60.0)


def depth40_dirac_chain():
    g = gr.geometric_chain(0.5, 0.5, 40, model=Dirac(1.0))
    return g, delta(g, 0.3), (-1.0, 60.0)


def twisted_chain():
    """A chain whose inner vertices couple through complex vectors (1, e^{i theta}):
    A(lambda) is complex, and pivots are chosen by |re| + |im|."""
    g = gr.geometric_chain(0.5, 0.8, 20)
    inner = g.vertices[1:-1]
    spec = {v: ([1.0, np.exp(0.4j + 0.1j * k)], [[0.3 - 0.05 * k]]) for k, v in enumerate(inner)}
    return g, cp.custom_coupling(g, spec), (-1.0, 60.0)


def relabeled(g, alpha, rng):
    """``g`` with its vertex and edge ids, and its edge list, shuffled by
    ``rng``, and the delta coupling of strengths ``alpha`` (by vertex) on it."""
    vertex = dict(zip(g.vertices, (f"x{k}" for k in rng.permutation(len(g.vertices)))))
    edge = dict(zip((e.id for e in g.edges), (f"b{k}" for k in rng.permutation(len(g.edges)))))
    edges = [Edge(edge[e.id], vertex[e.source], vertex[e.target], e.length) for e in g.edges]
    shuffled = MetricGraph(tuple(vertex[v] for v in g.vertices),
                           tuple(edges[k] for k in rng.permutation(len(edges))), g.model)
    return shuffled, cp.delta_coupling(shuffled, {vertex[v]: a for v, a in alpha.items()})


def shuffled_chain():
    """``depth40_chain`` with its vertex and edge ids, and its edge list,
    shuffled: in id order its matrix is not banded."""
    g, _, window = depth40_chain()
    return (*relabeled(g, gr.alpha_map(g, 0.3), np.random.default_rng(5)), window)


def dense_dets(oracle, lams, mesh):
    """np.linalg.det of the assembled matrices, one block at a time."""
    step = oracle._out.shape[0]
    return np.concatenate([np.linalg.det(oracle.matrices(lams[k:k + step], mesh))
                           for k in range(0, len(lams), step)])


def custom_star_window():
    g, coupling, lams = dirac_star_custom_centre()
    return g, coupling, (min(lams), max(lams))


def interval_window():
    g = gr.interval(1.3)
    return g, delta(g, 0.3), (-1.0, 60.0)


def two_intervals():
    """A forest: two intervals, one root each."""
    g = MetricGraph(("a", "b", "c", "d"), (Edge("e1", "a", "b", 1.0), Edge("e2", "d", "c", 0.7)))
    return g, cp.delta_coupling(g, {"a": 0.3, "b": -0.5, "c": 0.0, "d": 1.2}), (-1.0, 60.0)


def random_tree_window():
    g, coupling, lams = random_tree()
    return g, coupling, (min(lams), max(lams))


@pytest.mark.parametrize("make", [depth40_chain, depth40_dirac_chain, twisted_chain,
                                  shuffled_chain, custom_star_window, interval_window,
                                  two_intervals, random_tree_window])
def test_tree_grid_matches_lapack(make):
    g, coupling, window = make()
    oracle = sp._CompiledOracle(g, coupling)
    assert oracle._plan is not None
    grid = np.linspace(*window, 600)
    got, want = oracle.grid(grid, 2000), dense_dets(oracle, grid, 2000)
    assert np.iscomplexobj(got) == (not oracle.real)
    # Relative agreement, with equal signs, wherever |det| stands above rounding.
    clear = np.abs(want) >= 1e-8 * np.max(np.abs(want))
    assert np.all(np.abs(got - want)[clear] <= 1e-10 * np.abs(want)[clear])
    if oracle.real:
        np.testing.assert_array_equal(np.sign(got[clear]), np.sign(want[clear]))
    assert sp._grid_candidates(grid, got, oracle.real) == \
        sp._grid_candidates(grid, want, oracle.real)
    # A lambda's value does not depend on the others in its chunk.
    for i in (0, 311, 599):
        assert oracle._tree_dets(sp._transfer_stack(g.model, oracle.lengths, grid[i:i + 1],
                                                    2000))[0] == got[i]


def test_tree_grid_ignores_ids():
    g, coupling, window = depth40_chain()
    h, shuffled, _ = shuffled_chain()
    grid = np.linspace(*window, 600)
    ordered = sp._CompiledOracle(g, coupling).grid(grid, 2000)
    np.testing.assert_array_equal(np.abs(sp._CompiledOracle(h, shuffled).grid(grid, 2000)),
                                  np.abs(ordered))


def test_tree_pass_zero_column_gives_zero():
    # With alpha = 0 at its leaf source, column 0 of A is U[:, 0] T_0[0, 0] +
    # V[:, 0] T_0[1, 0]: zero where the crafted stack zeroes T_0[:, 0].
    g = gr.chain([0.5, 0.3, 0.2])
    oracle = sp._CompiledOracle(g, delta(g, 0.0))
    lams = np.array([-1.0, 0.5, 2.0, 7.0])
    t = sp._transfer_stack(g.model, oracle.lengths, lams, 2000)
    t[0, 1:3, :, 0] = 0.0
    assert not np.any(oracle._assemble(t)[1:3, :, 0])
    got = oracle._tree_dets(t)
    assert got[1] == 0.0 and got[2] == 0.0
    want = np.linalg.det(oracle._assemble(t)[[0, 3]])
    np.testing.assert_allclose(got[[0, 3]], want, rtol=1e-12, atol=0)


def test_tree_pass_scales_its_running_product(monkeypatch):
    # Rows scaled by 1e150 at one end of the path and 1e-150 at the other
    # leave det A as it was, but the product of the pivots passes 1e450 on
    # the way.  The fronts are compiled from the scaled rows.
    g = gr.chain([0.5, 0.3, 0.2, 0.4, 0.6, 0.1, 0.3, 0.5])
    scale = np.ones(2 * len(g.edges))
    scale[:4], scale[-4:] = 1e150, 1e-150
    plan = sp._CompiledOracle._plan_fronts

    def scaled(self, g, first_row, key, end, coef, base):
        rows = scale[key // len(g.edges)]
        return plan(self, g, first_row, key, end, coef * rows, base * scale[:, None])

    monkeypatch.setattr(sp._CompiledOracle, "_plan_fronts", scaled)
    oracle = sp._CompiledOracle(g, delta(g, 0.3))
    lams = np.array([-1.0, 2.0, 9.0, 30.0])
    t = sp._transfer_stack(g.model, oracle.lengths, lams, 2000)
    want = np.linalg.det(oracle._assemble(t))
    np.testing.assert_allclose(oracle._tree_dets(t), want, rtol=1e-12, atol=0)


def test_compile_memory_follows_what_it_keeps():
    # The compile keeps base and one block of matrices, each n x n (n = 1,020
    # here); its staging adds at most a quarter of that.
    g = gr.binary_tree(8)
    coupling = delta(g, 1.0)
    tracemalloc.start()
    try:
        oracle = sp._CompiledOracle(g, coupling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (oracle.base.nbytes + oracle._out.nbytes)


@pytest.mark.parametrize("factor", [0.6, -1.7, 1.3 - 0.9j])
def test_pivot_product_stays_in_range(factor):
    # 2001 equal factors, whose plain product under- or overflows.
    mant, expo = sp._product(np.full((2001, 2), factor))
    np.testing.assert_allclose(np.log2(np.abs(mant)) + expo, 2001 * np.log2(abs(factor)),
                               rtol=1e-12)
    np.testing.assert_allclose(mant / np.abs(mant), (factor / abs(factor)) ** 2001, rtol=1e-9)


def count_dets(monkeypatch):
    calls = []
    det = np.linalg.det

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    return calls


def three_cycle():
    g = MetricGraph(("a", "b", "c"), (Edge("e1", "a", "b", 1.0), Edge("e2", "b", "c", 0.7),
                                      Edge("e3", "c", "a", 1.3)))
    return g, cp.delta_coupling(g, {"a": 0.2, "b": -0.3, "c": 0.5})


def forty_edge_ring():
    g = gr.chain([0.5 + 0.01 * k for k in range(39)])
    g = MetricGraph(g.vertices, g.edges + (Edge("ring", g.vertices[-1], g.vertices[0], 0.7),))
    return g, delta(g, 0.3)


def test_grid_takes_lapack_only_off_forests(monkeypatch):
    calls = count_dets(monkeypatch)
    g, coupling, window = depth40_chain()
    grid = np.linspace(*window, 600)
    sp._CompiledOracle(g, coupling).grid(grid, 2000)
    assert calls == []
    # The polish stays on LAPACK.
    assert len(sp.oracle_eigenvalues(g, coupling, window).roots) > 0
    assert calls != []
    # Stars and bushy trees take the tree pass too, right to LAPACK's rounding.
    for make in (laplacian_star, random_tree):
        g, coupling, lams = make()
        oracle = sp._CompiledOracle(g, coupling)
        del calls[:]
        grid = np.linspace(min(lams), max(lams), 600)
        got = oracle.grid(grid, 2000)
        assert calls == []
        want = dense_dets(oracle, grid, 2000)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)))
    # A graph with a cycle puts every sample through LAPACK.
    for g, coupling in (three_cycle(), loop_and_double_edge()[:2], forty_edge_ring()):
        oracle = sp._CompiledOracle(g, coupling)
        assert oracle._plan is None
        del calls[:]
        oracle.grid(np.linspace(-1.0, 20.0, 600), 2000)
        assert sum(shape[0] for shape in calls) == 600


def test_oracle_matches_the_scan_on_a_150_edge_path():
    g = gr.geometric_chain(0.5, 0.97, 150)
    coupling = delta(g, 0.3)
    assert sp._CompiledOracle(g, coupling)._plan is not None
    scan = sp.scan_spectrum(g, coupling, (-1.0, 20.0))
    oracle = sp.oracle_eigenvalues(g, coupling, (-1.0, 20.0))
    pairs, only_scan, only_oracle = sp.match_spectra(scan.values, oracle.values, scan.excluded)
    assert len(scan.roots) == len(pairs) == 22
    assert only_scan == only_oracle == []


def random_tree_strengths():
    g = gr.random_graph(7, 15)
    return g, gr.alpha_map(g, 0.0), (-1.0, 20.0)


def dirac_star_strengths():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.0))
    return g, gr.alpha_map(g, 0.5), (-6.0, 6.0)


def dirac_random_tree_strengths():
    g = gr.random_graph(3, 8, model=Dirac(1.0))
    return g, gr.alpha_map(g, np.random.default_rng(3).uniform(-1.0, 1.0, 9).tolist()), (-6.0, 6.0)


@pytest.mark.parametrize("make", [random_tree_strengths, dirac_star_strengths,
                                  dirac_random_tree_strengths])
def test_oracle_roots_do_not_depend_on_ids(make):
    # Other ids and another edge list lay A out in another order, so LAPACK
    # factorizes another permutation of it; the roots stay within rounding.
    g, alpha, window = make()
    h, shuffled = relabeled(g, alpha, np.random.default_rng(11))
    coupling = cp.delta_coupling(g, alpha)
    assert not np.array_equal(sp._CompiledOracle(g, coupling).matrices([0.5], 2000),
                              sp._CompiledOracle(h, shuffled).matrices([0.5], 2000))
    want = sp.oracle_eigenvalues(g, coupling, window).roots
    got = sp.oracle_eigenvalues(h, shuffled, window).roots
    assert len(want) > 0
    assert [(r.multiplicity, r.flag) for r in got] == [(r.multiplicity, r.flag) for r in want]
    for x, y in zip(got, want):
        assert abs(x.lam - y.lam) <= 1e-12 * max(1.0, abs(y.lam))


def brent_zero(f, a, b, fa, fb):
    """``_brent_steps`` driven by calls of the scalar function f."""
    steps, value = sp._brent_steps(a, b, fa, fb), None
    while True:
        try:
            x = steps.send(value)
        except StopIteration as stop:
            return stop.value
        value = f(x)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: (x - 0.3) ** 3, -1.0, 2.0),
])
def test_brent_takes_the_same_steps_on_f_and_minus_f(f, a, b):
    # The oracle's layout may flip the sign of det A; its polish must not
    # depend on that sign.
    steps = {1.0: [], -1.0: []}

    def traced(sign):
        def h(x):
            steps[sign].append(x)
            return sign * f(x)
        return h

    roots = [brent_zero(traced(s), a, b, s * f(a), s * f(b)) for s in (1.0, -1.0)]
    assert roots[0] == roots[1] and steps[1.0] == steps[-1.0]
    assert len(steps[1.0]) > 3
