"""The scan's inertia counts: the O(V) tree pivots against the dense
eigensolve, the two kernels against each other on the same problem, and
the count-based cell solver at the window ends."""

from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import spectra as sp
from graphspectra.graphs import Edge, MetricGraph
from test_oracle import brent_zero
from test_pairing import loop_and_double_edge


def delta_problem(g, alpha):
    return cp.delta_coupling(g, gr.alpha_map(g, alpha))


def as_custom(g, coupling):
    """The same coupling data given as a custom coupling: the dense path."""
    return cp.custom_coupling(g, {v: (b.basis.T, b.matrix) for v, b in coupling.blocks.items()})


def dense_count(g, coupling, compiled, lam):
    """n_minus(K(lambda)) from the eigenvalues of the dense K, or None on a pole."""
    try:
        k = sp.krein_matrix(g, coupling, lam, _pairing=compiled)
    except em.PoleOfWeylError:
        return None
    return int(np.count_nonzero(np.linalg.eigvalsh(k) < 0))


def dirac_tree(c, seed):
    g = gr.random_graph(seed, 8, model=em.Dirac(c))
    return g, delta_problem(g, np.random.default_rng(seed).uniform(-1, 1, 9).tolist())


def halfline_tree():
    g = MetricGraph(("c", "b", "d"), (Edge("e", "c", "b", 1.0), Edge("f", "d", "c", 0.4),
                                      Edge("h", "c", None, math.inf),
                                      Edge("k", "d", None, math.inf)))
    return g, cp.delta_coupling(g, {"c": -3.0, "b": 0.5, "d": -1.0})


def laplacian_tree(seed):
    g = gr.random_graph(seed, 20)
    return g, delta_problem(g, np.random.default_rng(seed).uniform(-1, 1, 21).tolist())


CASES = [
    ("laplacian-tree-1", lambda: laplacian_tree(1), np.linspace(-3.0, 25.0, 401)),
    ("laplacian-tree-2", lambda: laplacian_tree(2), np.linspace(-3.0, 25.0, 401)),
    ("dirac-1", lambda: dirac_tree(1.0, 3), np.r_[np.linspace(-15.0, 15.0, 401), 0.0, 0.5, -0.5]),
    ("dirac-2.5", lambda: dirac_tree(2.5, 4),
     np.r_[np.linspace(-15.0, 15.0, 401), 0.0, 3.125, -3.125]),
    ("chain-40", lambda: (gr.geometric_chain(0.5, 0.5, 40),
                          delta_problem(gr.geometric_chain(0.5, 0.5, 40), 0.3)),
     np.linspace(-1.0, 60.0, 301)),
    ("half-lines", halfline_tree, np.linspace(-12.0, -1e-3, 301)),
    # l sqrt(-lambda) up to 1,300, where sinh overflows.
    ("long-edges", lambda: (gr.chain([30.0, 45.0, 0.5]),
                            delta_problem(gr.chain([30.0, 45.0, 0.5]), [-2.0, 0.5, -1.0, 0.0])),
     np.r_[np.linspace(-900.0, -1.0, 61), np.linspace(-1.0, 2.0, 61)]),
]


@pytest.mark.parametrize("build, grid", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_tree_counts_equal_dense_counts(build, grid):
    g, coupling = build()
    compiled = cp._CompiledPairing(g, coupling)
    inertia = sp._Inertia(g, coupling, compiled)
    assert inertia.tree is not None
    checked = 0
    for lam in grid.tolist():
        want = dense_count(g, coupling, compiled, lam)
        if want is None:
            continue
        neg, sign, _ = inertia(lam)
        assert (neg, sign) == (want, (-1.0) ** want), lam
        checked += 1
    assert checked > 0.9 * len(grid)


@pytest.mark.parametrize("build, grid", [case[1:] for case in CASES], ids=[c[0] for c in CASES])
def test_batched_counts_are_the_one_lambda_counts(build, grid):
    # One batch mixes k^2 < 0, k^2 > 0 and the series (lambda = 0 and, on
    # Dirac, +-c^2/2) as the scan's rounds do; each lambda keeps its bytes.
    g, coupling = build()
    compiled = cp._CompiledPairing(g, coupling)
    inertia = sp._Inertia(g, coupling, compiled)
    lams = [lam for lam in np.r_[grid, 0.0].tolist()  # off the poles, as the scan's
            if dense_count(g, coupling, compiled, lam) is not None]
    assert inertia.many(lams) == [inertia(lam) for lam in lams]
    alone = np.array([inertia.tree([lam])[0] for lam in lams])
    assert inertia.tree(lams).tobytes() == alone.tobytes()
    assert inertia.tree(lams[::-1]).tobytes() == alone[::-1].tobytes()


def test_a_batch_names_its_first_overflowing_lambda():
    g, coupling = CASES[-1][1]()
    inertia = sp._Inertia(g, coupling, cp._CompiledPairing(g, coupling))
    with np.errstate(over="ignore"):  # l^2 lambda overflows to inf
        with pytest.raises(em.EdgeModelError) as alone:
            inertia(-1e306)
        with pytest.raises(em.EdgeModelError) as batch:
            inertia.many([-1.0, -1e306, 1e307, 2.0])
    assert str(batch.value) == str(alone.value) == "lambda=-1e+306 overflows the edge evaluation"


def test_tree_log_det_is_the_dense_one_rescaled():
    # P = N K N with N the diagonal of basis norms sqrt(deg v).
    g, coupling = laplacian_tree(1)
    compiled = cp._CompiledPairing(g, coupling)
    inertia = sp._Inertia(g, coupling, compiled)
    degrees = [len(coords) for coords in gr.incidence_sets(g).values()]
    shift = float(np.sum(np.log(np.array(degrees, dtype=float))))
    for lam in (-2.5, 0.3, 7.7, 19.1):
        mu = np.linalg.eigvalsh(sp.krein_matrix(g, coupling, lam, _pairing=compiled))
        want = float(np.sum(np.log(np.abs(mu)))) + shift
        assert abs(inertia(lam)[2] - want) <= 1e-9 * max(1.0, abs(want))


def test_only_delta_trees_take_the_tree_kernel():
    tree, coupling = laplacian_tree(1)
    g, custom, _ = loop_and_double_edge()
    triangle = gr.star(2, lengths=[1.0, 0.5])  # made a cycle below
    triangle = MetricGraph(triangle.vertices, triangle.edges + (
        Edge("e02", "leaf00", "leaf01", 0.7),))
    for g_, c_, tree_path in [(tree, coupling, True), (tree, as_custom(tree, coupling), False),
                              (g, custom, False), (g, delta_problem(g, 0.1), False),
                              (triangle, delta_problem(triangle, 0.1), False)]:
        inertia = sp._Inertia(g_, c_, cp._CompiledPairing(g_, c_))
        assert (inertia.tree is not None) == tree_path


def test_the_tree_kernel_never_evaluates_the_scalar_edge_path(monkeypatch):
    g, coupling = laplacian_tree(2)
    inertia = sp._Inertia(g, coupling, cp._CompiledPairing(g, coupling))

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar edge path reached")

    for name in ("weyl", "pole_distance", "_response", "_guard"):
        monkeypatch.setattr(em, name, forbidden)
    for name in ("det", "svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for lam in (-2.0, 0.0, 1e-12, 3.3, 17.0):
        inertia(lam)


def test_the_certificate_on_a_delta_tree_is_a_count(monkeypatch):
    # The dense certificate (an eigensolve per point) gave 0.7747941788679835
    # on binary_tree(10) with alpha = 1, in 44 s.
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve reached")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    g = gr.binary_tree(10)
    cert = sp.lower_bound_certificate(g, delta_problem(g, 1.0))
    assert abs(cert - 0.7747941788679835) <= 1e-9


@pytest.mark.parametrize("depth, want", [
    (30, [3.011335349456]),
    (40, [3.11791135211205, 20.66890546677179, 55.19413333738711]),
])
def test_short_edge_chain_roots_match_the_references(depth, want):
    # References from a 60-digit transfer-matrix computation.  K has entries
    # of order 1/l_min = 2^depth here, and its eigensolve put the lowest root
    # 4.7e-9 (depth 30) and 3.3e-7 (depth 40) off.
    g = gr.geometric_chain(0.5, 0.5, depth)
    res = sp.scan_spectrum(g, delta_problem(g, 0.3), (-1.0, 60.0))
    got = {r.lam: r.multiplicity for r in res.roots}
    for ref in want:
        lam = min(got, key=lambda x: abs(x - ref))
        assert abs(lam - ref) <= 1e-12 * ref
        assert got[lam] == 1


def route_pairs():
    tree = gr.random_graph(7, 15)
    equal = gr.star(3, lengths=1.0)
    dstar = gr.star(3, lengths=[1.0, 0.7, 1.3], model=em.Dirac(1.0))
    return [
        pytest.param(tree, delta_problem(tree, 0.0), (-1.0, 20.0), None, id="random-7-15"),
        pytest.param(equal, delta_problem(equal, 0.0), (-5.0, 60.0), [1, 2, 2],
                     id="star-doubles"),
        pytest.param(dstar, delta_problem(dstar, 0.5), (-15.0, 15.0), None, id="dirac-star"),
    ]


@pytest.mark.parametrize("g, coupling, window, multiplicities", route_pairs())
def test_tree_and_dense_kernels_give_the_same_roots(g, coupling, window, multiplicities):
    tree = sp.scan_spectrum(g, coupling, window)
    dense = sp.scan_spectrum(g, as_custom(g, coupling), window)
    assert len(tree.roots) == len(dense.roots) > 0
    for r, s in zip(tree.roots, dense.roots):
        assert abs(r.lam - s.lam) <= 1e-12 * max(1.0, abs(r.lam))
        assert r.multiplicity == s.multiplicity
    if multiplicities is not None:
        assert [r.multiplicity for r in tree.roots] == multiplicities


def triangle():
    g = MetricGraph(("a", "b", "c"), (Edge("e1", "a", "b", 1.0), Edge("e2", "b", "c", 0.7),
                                      Edge("e3", "c", "a", 1.3)))
    return g, cp.delta_coupling(g, {"a": 0.2, "b": -0.3, "c": 0.5})


def loop_and_double_edge_delta():
    g = loop_and_double_edge()[0]
    return g, cp.delta_coupling(g, {"a": 0.4, "b": -0.2, "c": 0.0})


@pytest.mark.parametrize("build, window, want", [
    (triangle, (-2.0, 12.0), [0.10468860715723627, 4.2116071299854605, 4.814013814217738]),
    (lambda: loop_and_double_edge()[:2], (-2.0, 8.0),
     [-1.7835871685013331, -5.5469978766776997e-17, 0.6264265848599445, 2.3447131798816856,
      6.1802953793643525]),
    (loop_and_double_edge_delta, (-2.0, 8.0),
     [0.02819841574632852, 2.3023319485116187, 3.371317585796886, 6.64481233938498]),
], ids=["3-cycle", "loop-and-double-edge", "loop-and-double-edge-delta"])
def test_non_tree_roots_are_those_of_the_branch_scan(build, window, want):
    # The roots the scan gave when it ran Brent on each eigenvalue branch of K.
    g, coupling = build()
    res = sp.scan_spectrum(g, coupling, window)
    np.testing.assert_allclose(res.values, want, rtol=0, atol=1e-12 * max(map(abs, want)))
    assert [r.multiplicity for r in res.roots] == [1] * len(want)


R0 = 1.802368011163211  # a root of the Kirchhoff star(3) with lengths 1, 0.7, 1.3


def neumann_leaf_star():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    return g, delta_problem(g, 0.0)


@pytest.mark.parametrize("custom", [False, True], ids=["tree", "dense"])
def test_roots_next_to_a_window_end_are_reported(custom):
    # The window ends are not poles, so they are scanned up to themselves:
    # a root 1e-8 inside either end used to fall into a pole pad and vanish.
    g, coupling = neumann_leaf_star()
    if custom:
        coupling = as_custom(g, coupling)
    for window in [(R0 - 1e-8, 3.0), (0.5, R0 + 1e-8)]:
        res = sp.scan_spectrum(g, coupling, window)
        assert len(res.roots) == 1 and abs(res.roots[0].lam - R0) <= 1e-14 * R0
    assert sp.scan_spectrum(g, coupling, (1.0, 1.0 + 1e-7)).roots == ()


def test_adjacent_windows_report_a_root_once():
    # Roots are reported in [a, b): the window that starts at a root has it.
    g, coupling = neumann_leaf_star()
    for cut in (R0, math.nextafter(R0, 0.0), math.nextafter(R0, 3.0), R0 - 1e-13, R0 + 1e-13):
        parts = [sp.scan_spectrum(g, coupling, w) for w in [(0.5, cut), (cut, 3.0)]]
        assert sum(len(p.roots) for p in parts) == 1
    iv = gr.interval(1.0)
    kirchhoff = delta_problem(iv, 0.0)  # eigenvalue 0, where K is exactly singular
    for coupling in (kirchhoff, as_custom(iv, kirchhoff)):
        assert sp.scan_spectrum(iv, coupling, (-1.0, 0.0)).roots == ()
        assert [r.lam for r in sp.scan_spectrum(iv, coupling, (0.0, 1.0)).roots] == [0.0]


def test_a_window_end_next_to_a_pole_keeps_its_pad():
    # pi^2 lies just past the window's end: the end is padded like a pole,
    # and K is never evaluated within the pole guard.
    g = gr.interval(1.0)
    coupling = delta_problem(g, 0.0)
    p = math.pi ** 2
    for window in [(p + 1e-9, 20.0), (1.0, p - 1e-9)]:
        assert sp.scan_spectrum(g, coupling, window).excluded == ()
    with pytest.raises(ValueError, match="pole neighborhoods only"):
        sp.scan_spectrum(g, coupling, (p + 1e-9, p + 2e-9))


def sequential_scan(g, coupling, window, tol=1e-8):
    """The scan one lambda at a time: per cell, recursive count bisection,
    then per bracket Brent (odd count jumps) or count bisection (even ones),
    the dense path's eigenvalues kept per bracket, and each root's residual
    from a one-lambda request (the scan asks for all of them at once)."""
    a, b = window
    inertia = sp._Inertia(g, coupling, cp._CompiledPairing(g, coupling))

    def pad(x):
        return 10 * sp._POLE_GUARD * max(1.0, abs(x))

    near = sp._decoupled_in_window(g, (a - pad(a), b + pad(b)))
    cuts = [a] + [p for p in near.tolist() if a < p < b] + [b]
    pads = [pad(x) if near.size and np.min(np.abs(near - x)) <= pad(x) else 0.0 for x in cuts]

    def brackets(lo, hi, flo, fhi):
        if fhi[0] - flo[0] == 1 or (fhi[0] > flo[0] and
                                    hi - lo <= max(100 * tol, 1e-9 * max(1.0, abs(hi)))):
            yield lo, hi, flo, fhi
        elif fhi[0] > flo[0]:
            mid = 0.5 * (lo + hi)
            fmid = inertia(mid)
            fmid = (min(max(fmid[0], flo[0]), fhi[0]),) + fmid[1:]
            yield from brackets(lo, mid, flo, fmid)
            yield from brackets(mid, hi, fmid, fhi)

    def polish(lo, hi, flo, fhi):
        if (fhi[0] - flo[0]) % 2:
            def scaled(f):
                return f[1] * math.exp(max(-700.0, min(700.0, f[2] - flo[2])))
            return brent_zero(lambda lam: scaled(inertia(lam)), lo, hi, flo[1], scaled(fhi))
        while hi - lo > 4e-16 * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            n = inertia(mid)[0]
            if flo[0] < n < fhi[0]:
                break
            lo, hi = (mid, hi) if n <= flo[0] else (lo, mid)
        return 0.5 * (lo + hi)

    roots = []
    for left, right, left_pad, right_pad in zip(cuts, cuts[1:], pads, pads[1:]):
        lo, hi = left + left_pad, right - right_pad
        if hi <= lo:
            continue
        for bracket in list(brackets(lo, hi, inertia(lo), inertia(hi))):
            inertia.seen.clear()
            r = polish(*bracket)
            residual = float(np.prod(np.abs(inertia.eigenvalues([r])[0])))
            roots.append(sp.Root(r, residual, bracket[3][0] - bracket[2][0], "krein"))
    return tuple(roots)


def lockstep_cases():
    equal = gr.star(3, lengths=1.0)
    dstar = gr.star(3, lengths=[1.0, 0.7, 1.3], model=em.Dirac(1.0))
    chain = gr.geometric_chain(0.5, 0.5, 40)
    g, custom, _ = loop_and_double_edge()
    return [
        pytest.param(equal, delta_problem(equal, 0.0), (-5.0, 60.0), id="star-doubles"),
        pytest.param(dstar, delta_problem(dstar, 0.5), (-15.0, 15.0), id="dirac-star"),
        pytest.param(chain, delta_problem(chain, 0.3), (-1.0, 60.0), id="chain-40"),
        pytest.param(*dirac_tree(1.0, 3), (-15.0, 15.0), id="dirac-random-3-8"),
        pytest.param(g, custom, (-2.0, 8.0), id="loop-and-double-edge"),
    ]


@pytest.mark.parametrize("g, coupling, window", lockstep_cases())
def test_lockstep_scan_is_the_sequential_scan(g, coupling, window):
    roots = sp.scan_spectrum(g, coupling, window).roots
    assert len(roots) > 2 and roots == sequential_scan(g, coupling, window)


def _cycle_closed_chain(depth):
    """geometric_chain(0.5, 0.5, depth) with a chord of length 1 that closes
    the cycle v00 - v01 - v02, so that every count takes the dense path."""
    chain = gr.geometric_chain(0.5, 0.5, depth)
    return MetricGraph(chain.vertices, chain.edges + (Edge("x", "v00", "v02", 1.0),),
                       chain.model)


#: The least eigenvalue of the cycle-closed chain with alpha = -0.2 at every
#: vertex, computed at 60 digits (``_mpmath_bottom``) and shown to 20.
_CYCLE_CHAIN_BOTTOMS = {25: "-15.405852328430773402", 30: "-24.706318371202110868",
                        35: "-36.074899449067384638", 40: "-49.38508827017814092"}


def _mpmath_bottom(depth, alpha="-0.2"):
    """The least root of det V(lambda), V the vertex matrix of the delta
    coupling at lambda = -kappa^2 < 0 (-sum kappa coth(kappa l) - alpha on the
    diagonal, kappa / sinh(kappa l) off it), at 60 digits: bisection on
    V's definiteness (-V is Cholesky-factorable below the bottom), then
    the Anderson root finder on det V; shown to 20 digits."""
    import mpmath as mp

    g = _cycle_closed_chain(depth)
    at = {v: i for i, v in enumerate(g.vertices)}

    def vertex_matrix(lam):
        kappa = mp.sqrt(-lam)
        v = mp.diag([-mp.mpf(alpha)] * len(at))
        for e in g.edges:
            i, j = at[e.source], at[e.target]
            diag, off = kappa * mp.coth(kappa * e.length), kappa / mp.sinh(kappa * e.length)
            v[i, i], v[j, j] = v[i, i] - diag, v[j, j] - diag
            v[i, j], v[j, i] = v[i, j] + off, v[j, i] + off
        return v

    def below(lam):
        try:
            mp.cholesky(-vertex_matrix(lam))
        except ValueError:
            return False
        return True

    with mp.workdps(60):
        lo, hi = mp.mpf(-200), mp.mpf(-1)
        assert below(lo) and not below(hi)
        for _ in range(30):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        root = mp.findroot(lambda lam: mp.det(vertex_matrix(lam)), (lo, hi), solver="anderson")
        assert lo <= root <= hi
        return mp.nstr(root, 20)


@pytest.mark.parametrize("depth", sorted(_CYCLE_CHAIN_BOTTOMS))
def test_the_dense_certificate_lies_below_the_bottom(depth):
    # The cycle sends every count through the eigensolve of K, whose entries
    # grow as 1/l_min = 2^(depth + 1).  Counting a least eigenvalue within
    # its rounding bound as PSD certified -49.3139 at depth 40, above the
    # bottom; within the bound a point now counts as not PSD.
    g = _cycle_closed_chain(depth)
    coupling = delta_problem(g, -0.2)
    assert sp._tree_pivots(g, coupling, sp._CompiledPairing(g, coupling)) is None
    bottom = float(_CYCLE_CHAIN_BOTTOMS[depth])
    assert 2 * bottom <= sp.lower_bound_certificate(g, coupling) <= bottom


def test_the_cycle_chain_bottoms_match_their_generator():
    # Regenerates the shallowest bottom at 60 digits; CI installs no mpmath.
    pytest.importorskip("mpmath")
    assert _mpmath_bottom(25) == _CYCLE_CHAIN_BOTTOMS[25]
