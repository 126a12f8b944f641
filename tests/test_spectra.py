from __future__ import annotations

import math

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import criteria as cr
from graphspectra import edges as em
from graphspectra import graphs as gr
from graphspectra import spectra as sp
from graphspectra.edges import Dirac
from graphspectra.graphs import Edge, MetricGraph
from graphspectra.regularize import build_regularization


def delta_problem(g, alpha):
    return cp.delta_coupling(g, gr.alpha_map(g, alpha))


def two_halflines(alpha):
    g = MetricGraph(("c",), (Edge("h1", "c", None, math.inf),
                             Edge("h2", "c", None, math.inf)))
    return g, cp.delta_coupling(g, {"c": alpha})


def test_krein_scalar_for_two_halflines():
    g, coup = two_halflines(-2.0)
    for lam in [-4.0, -1.0, -0.25]:
        k = sp.krein_matrix(g, coup, lam)
        assert k.shape == (1, 1)
        assert abs(k[0, 0] - (-1.0 + math.sqrt(-lam))) < 1e-12


def test_halfline_bound_state_exact():
    g, coup = two_halflines(-2.0)
    res = sp.scan_spectrum(g, coup, (-5.0, -1e-6))
    assert len(res.roots) == 1
    assert abs(res.roots[0].lam + 1.0) < 1e-9


def test_neumann_interval_det_is_minus_lambda():
    g = gr.interval(1.0)
    coup = cp.custom_coupling(g, {})
    for lam in [-3.0, -1.0, 2.0, 7.5]:
        k = sp.krein_matrix(g, coup, lam)
        assert abs(np.linalg.det(k) - (-lam)) < 1e-9 * max(1.0, abs(lam))


def test_krein_pole_guard():
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    with pytest.raises(em.PoleOfWeylError):
        sp.krein_matrix(g, coup, math.pi ** 2 + 1e-10)

    def raises(f, *args):
        try:
            f(*args)
        except em.PoleOfWeylError:
            return True
        return False

    # The secular matrix applies the edge kernel's one guard, 1e-9 max(1, |p|):
    # it raises exactly where weyl does, on both sides of the guard.
    for model in (em.Laplacian(), Dirac(1.0)):
        g = gr.interval(1.0, model)
        coup = delta_problem(g, 0.0)
        for pole in em.decoupled_eigenvalues(model, 1.0, count=1).tolist():
            for offset in (5e-10, 5e-9):
                lam = pole + offset * max(1.0, abs(pole))
                assert (raises(sp.krein_matrix, g, coup, lam) == raises(em.weyl, model, 1.0, lam)
                        == (offset < 1e-9))


def test_krein_conjugate_symmetry():
    g = gr.star(3, lengths=[1.0, 0.5, 2.0])
    coup = delta_problem(g, 1.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = complex(rng.uniform(-4, 4), rng.uniform(0.2, 2.0))
        k1 = sp.krein_matrix(g, coup, lam)
        k2 = sp.krein_matrix(g, coup, np.conj(lam))
        assert np.max(np.abs(k1.conj().T - k2)) < 1e-10


def test_neumann_interval_scan_and_oracle():
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    scan = sp.scan_spectrum(g, coup, (-1.0, 45.0))
    assert len(scan.roots) == 1
    assert abs(scan.roots[0].lam) < 1e-7
    assert np.allclose(scan.excluded, [math.pi ** 2, 4 * math.pi ** 2])
    oracle = sp.oracle_eigenvalues(g, coup, (-1.0, 45.0))
    got = sorted(r.lam for r in oracle.roots)
    assert len(got) == 3
    assert abs(got[0]) < 1e-7
    assert abs(got[1] - math.pi ** 2) < 1e-7
    assert abs(got[2] - 4 * math.pi ** 2) < 1e-6
    flags = {round(r.lam, 3): r.flag for r in oracle.roots}
    assert flags[round(math.pi ** 2, 3)] == "sigma_a0"


def test_oracle_transfer_poles_match_dirichlet():
    # T(lam)[0,1] solves psi(0)=0, psi'(0)=1: its zeros at lam = (n pi)^2.
    g = gr.interval(1.0)
    for n in (1, 2):
        lam = (n * math.pi) ** 2
        t = sp._transfer_stack(g.model, np.array([1.0]), [lam], 2048)[0, 0]
        assert abs(t[0, 1]) < 1e-8


def test_star_scan_oracle_agreement_with_multiplicities():
    g = gr.star(3, lengths=1.0)
    coup = delta_problem(g, 0.0)
    scan = sp.scan_spectrum(g, coup, (-5.0, 60.0))
    oracle = sp.oracle_eigenvalues(g, coup, (-5.0, 60.0))
    for n in (0, 1):
        double = ((n + 0.5) * math.pi) ** 2
        root = min(scan.roots, key=lambda r: abs(r.lam - double))
        assert abs(root.lam - double) <= 1e-13 * double
        assert root.multiplicity == 2
    pairs, only_scan, only_oracle = sp.match_spectra(
        scan.values, oracle.values, scan.excluded, rtol=1e-6)
    assert not only_scan and not only_oracle
    for x, y in pairs:
        assert abs(x - y) <= 1e-6 * max(1.0, abs(x))


def test_neumann_leaf_star_roots():
    # 60-digit roots of sum_e tan(k l_e) = 0, lambda = k^2: Kirchhoff centre,
    # Neumann leaves.
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    scan = sp.scan_spectrum(g, delta_problem(g, 0.0), (0.5, 30.0))
    want = [1.802368011163211243, 3.5546633939535946317,
            17.095410218788818153, 28.383339490323194154]
    np.testing.assert_allclose(scan.values, want, rtol=1e-13, atol=0)
    assert [r.multiplicity for r in scan.roots] == [1, 1, 1, 1]


def test_scan_evaluations_per_root(monkeypatch):
    # Each lambda of a list request is one evaluation of K.
    calls = []
    krein = sp.krein_matrix

    def counted(*args, **kwargs):
        calls.extend(args[2] if isinstance(args[2], list) else [args[2]])
        return krein(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("root residuals come from the eigenvalues at hand")

    monkeypatch.setattr(sp, "krein_matrix", counted)
    monkeypatch.setattr(np.linalg, "det", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    g = gr.random_graph(7, 15)
    scan = sp.scan_spectrum(g, delta_problem(g, 0.0), (-1.0, 20.0))
    assert len(scan.roots) > 0
    assert len(calls) <= 12 * len(scan.roots)
    assert len(calls) == len(set(calls))

    # Double roots: two branches whose zeroin steps coincide.
    calls.clear()
    equal = gr.star(3, lengths=1.0)
    scan = sp.scan_spectrum(equal, delta_problem(equal, 0.0), (-5.0, 60.0))
    assert [r.multiplicity for r in scan.roots] == [1, 2, 2]
    assert len(calls) == len(set(calls))


def recorded_krein_calls(monkeypatch):
    """The lambda argument of every krein_matrix call the scan makes."""
    calls = []
    krein = sp.krein_matrix

    def recorded(g, coupling, lam, **kwargs):
        calls.append(lam)
        return krein(g, coupling, lam, **kwargs)

    monkeypatch.setattr(sp, "krein_matrix", recorded)
    return calls


def test_a_delta_tree_scan_asks_for_all_residuals_in_one_call(monkeypatch):
    # The counts are tree pivots, so the one secular-matrix call is the
    # residuals', at the roots in order, a one-root scan's as a list too.
    calls = recorded_krein_calls(monkeypatch)
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    scan = sp.scan_spectrum(g, delta_problem(g, 0.0), (0.5, 30.0))
    assert len(scan.roots) == 4 and calls == [[r.lam for r in scan.roots]]
    calls.clear()
    scan = sp.scan_spectrum(g, delta_problem(g, 0.0), (0.5, 3.0))
    assert len(scan.roots) == 1 and calls == [[scan.roots[0].lam]]


def test_a_dense_scan_asks_for_each_round_in_blocks(monkeypatch):
    # A custom coupling on a graph with cycles counts with the eigenvalues of
    # the dense K: each round's new lambda values go to krein_matrix in
    # blocks of the byte budget, here set to three matrices, and so do the
    # residuals of the roots not counted on the way; the roots keep the bytes
    # of the default budget.
    from test_pairing import loop_and_double_edge

    g, coupling, _ = loop_and_double_edge()
    window = (-2.0, 8.0)
    want = sp.scan_spectrum(g, coupling, window).roots
    n = cp._CompiledPairing(g, coupling).n
    monkeypatch.setattr(sp, "_SECULAR_BLOCK_BYTES", 3 * 16 * n * n)
    rounds, many = [], sp._Inertia.many

    def recorded(self, lams):
        rounds.append(lams)
        return many(self, lams)

    monkeypatch.setattr(sp._Inertia, "many", recorded)
    calls = recorded_krein_calls(monkeypatch)
    roots = sp.scan_spectrum(g, coupling, window).roots
    assert roots == want and len(roots) > 2
    seen, blocks = set(), []
    for lams in rounds + [[r.lam for r in roots]]:
        new = [lam for lam in dict.fromkeys(lams) if lam not in seen]
        seen.update(new)
        blocks += [new[i:i + 3] for i in range(0, len(new), 3)]
    assert calls == blocks
    assert max(len(lams) for lams in rounds) > 3 and any(len(b) == 1 for b in blocks)


def test_scan_eigensolves_real_secular_matrices_in_real_arithmetic(monkeypatch):
    from test_pairing import dirac_star_custom_centre

    dtypes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    tree = gr.random_graph(7, 15)
    star = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.0))
    custom, coup, _ = dirac_star_custom_centre()
    for g, coupling, window, dtype in [
            (tree, delta_problem(tree, 0.0), (-1.0, 20.0), np.float64),
            (star, delta_problem(star, 0.5), (-5.0, 5.0), np.float64),
            (custom, coup, (-5.0, 5.0), np.complex128)]:
        dtypes.clear()
        assert sp.scan_spectrum(g, coupling, window).roots
        assert set(dtypes) == {np.dtype(dtype)}
    # The semi-boundedness check eigensolves the same K, by the same rule.
    coupling, reg = delta_problem(tree, 0.0), build_regularization(tree)
    dtypes.clear()
    assert cr.check_semibounded(tree, coupling, reg, -1.0).verdict == "HOLDS"
    assert dtypes == [np.dtype(np.float64)]


def test_dirac_interval_agreement():
    g = gr.interval(1.0, model=Dirac(1.0))
    coup = delta_problem(g, 1.0)
    scan = sp.scan_spectrum(g, coup, (-5.0, 5.0))
    oracle = sp.oracle_eigenvalues(g, coup, (-5.0, 5.0))
    assert len(scan.roots) == 4
    pairs, only_scan, only_oracle = sp.match_spectra(
        scan.values, oracle.values, scan.excluded, rtol=1e-6)
    assert not only_scan and not only_oracle
    assert len(pairs) == 4


def test_interlacing_under_alpha_increase():
    # The oracle route sees the full spectrum (including points the matching
    # criterion skips), so elementwise monotonicity in alpha is well posed.
    g = gr.star(3, lengths=1.0)
    base = sp.oracle_eigenvalues(g, delta_problem(g, [0.0, 0.0, 0.0, 0.0]), (-5.0, 40.0))
    moved = sp.oracle_eigenvalues(g, delta_problem(g, [0.8, 0.0, 0.0, 0.0]), (-5.0, 40.0))
    a = sorted(np.repeat(base.values, [r.multiplicity for r in base.roots]))
    b = sorted(np.repeat(moved.values, [r.multiplicity for r in moved.roots]))
    assert len(a) and len(b)
    for x, y in zip(a, b):
        assert y >= x - 1e-7


def test_delta_well_bound_state_truncated_oracle():
    g = MetricGraph(("c", "l", "r"),
                    (Edge("e1", "c", "l", 40.0), Edge("e2", "c", "r", 40.0)))
    coup = cp.delta_coupling(g, {"c": -2.0, "l": 0.0, "r": 0.0})
    res = sp.oracle_eigenvalues(g, coup, (-1.5, -0.5))
    assert len(res.roots) == 1
    assert abs(res.roots[0].lam + 1.0) < 1e-4


def test_lower_bound_certificates():
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    cert = sp.lower_bound_certificate(g, coup)
    assert cert is not None and -1e-3 < cert <= 0.0

    g2, coup2 = two_halflines(-2.0)
    cert2 = sp.lower_bound_certificate(g2, coup2)
    assert cert2 is not None
    assert cert2 <= -1.0 + 1e-6
    assert cert2 > -1.1

    gd = gr.interval(1.0, model=Dirac(1.0))
    assert sp.lower_bound_certificate(gd, delta_problem(gd, 0.0)) is None

    # A delta well of strength -1e4 binds a state at -1e8, 10^8 under the
    # decoupled ground state: the certificate's downward search reaches
    # it, and its bisection ends within 1e-9 relative below it.
    coup3 = cp.delta_coupling(g, {"a": -1e4, "b": 0.0})
    (bound,) = sp.scan_spectrum(g, coup3, (-1.1e8, -0.9e8)).roots
    assert bound.lam == pytest.approx(-1e8)
    assert bound.lam * (1 + 1e-9) <= sp.lower_bound_certificate(g, coup3) <= bound.lam


def test_an_overflowing_long_edge_raises_without_a_warning():
    # (l k)^2 overflows on a 1e153 edge below lambda = -180; tier-1 raises
    # a numpy overflow warning as an error, so it must not come first.
    g = gr.interval(1e153)
    coup = cp.delta_coupling(g, {"a": -100.0, "b": 0.0})
    with pytest.raises(em.EdgeModelError, match="overflows the edge evaluation"):
        sp.scan_spectrum(g, coup, (-1e4, -1.0))


@pytest.mark.parametrize("length, alpha, want", [
    (1e153, -100.0, None),    # bound at -1e4, where the edge overflows
    (1e153, -10.0, -100.0),   # bound at -100
    (1e160, -1.0, None),      # l^2 overflows at every lambda
    (1e120, -1e4, -1e8),      # bound at -1e8, 10^8 under the ground state
])
def test_certificate_on_long_edges(length, alpha, want):
    g = gr.interval(length)
    cert = sp.lower_bound_certificate(g, cp.delta_coupling(g, {"a": alpha, "b": 0.0}))
    if want is None:
        assert cert is None
    else:
        assert want - max(1e-6, 1e-9 * abs(want)) <= cert <= want


def lowest_root(g, coupling, cert):
    return sp.scan_spectrum(g, coupling, (cert - 1.0, 0.99 * sp.decoupled_ground_state(g))).values[0]


@pytest.mark.parametrize("length", [0.3, 0.1, 0.01])
def test_certificate_on_short_cycles(length):
    # The ground state (pi / length)^2 lies above 100, where a top candidate
    # 1e-9 |ground| below it fell inside the pole guard of krein_matrix and
    # the certificate was None; a cycle takes the dense eigensolve.
    g = MetricGraph(("a", "b", "c"), (Edge("e0", "a", "b", length), Edge("e1", "b", "c", length),
                                      Edge("e2", "c", "a", length)))
    coup = delta_problem(g, 1.0)
    cert = sp.lower_bound_certificate(g, coup)
    assert cert is not None
    lowest = lowest_root(g, coup, cert)
    assert lowest - 1e-8 * lowest <= cert <= lowest + 1e-9 * lowest


def test_certificate_of_a_custom_coupling_equals_the_delta_one():
    # The same delta data through custom_coupling take the dense eigensolve
    # instead of the tree pivots, and give the same certificate.
    g = gr.star(3, [0.2, 0.25, 0.3])
    coup = delta_problem(g, 1.0)
    custom = cp.custom_coupling(g, {v: (b.basis.T, b.matrix) for v, b in coup.blocks.items()})
    cert = sp.lower_bound_certificate(g, coup)
    assert sp.lower_bound_certificate(g, custom) == cert
    lowest = lowest_root(g, coup, cert)
    assert lowest - 1e-8 * lowest <= cert <= lowest + 1e-9 * lowest


def test_certificate_starts_above_the_overflow_point(monkeypatch):
    # (l k)^2 overflows on a 1e153 edge below lambda = -179.8: the lower end
    # starts just above that, not at ground - 1e7 with one count per halving.
    counts = []
    many = sp._Inertia.many

    def counted(self, lams):
        counts.append(lams)
        return many(self, lams)

    monkeypatch.setattr(sp._Inertia, "many", counted)
    g = gr.interval(1e153)
    cert = sp.lower_bound_certificate(g, cp.delta_coupling(g, {"a": -10.0, "b": 0.0}))
    assert cert == pytest.approx(-100.00000003027935, rel=1e-9)
    assert len(counts) <= 37  # 52 when halving up from ground - 1e7


@pytest.mark.parametrize("scale", [1e-2, 1e-4, 1e-6])
def test_both_routes_and_the_certificate_are_scale_covariant(scale):
    # Lengths l s, strengths alpha / s and lambda / s^2 give the operator of
    # s = 1 times 1 / s^2: the roots of both routes and the certificate,
    # times s^2, are those of s = 1.  Each of the certificate's two
    # bisections (at s and at 1) stops within 1e-9 relative.
    def solve(s):
        g = gr.star(3, lengths=[1.0 * s, 0.7 * s, 1.3 * s])
        coup = delta_problem(g, 0.5 / s)
        window = (-5.0 / s / s, 40.0 / s / s)
        return (sp.scan_spectrum(g, coup, window).values * s * s,
                sp.oracle_eigenvalues(g, coup, window).values * s * s,
                sp.lower_bound_certificate(g, coup) * s * s)

    scan, oracle, cert = solve(scale)
    want_scan, want_oracle, want_cert = solve(1.0)
    assert len(want_scan) == len(want_oracle) == 6
    np.testing.assert_allclose(scan, want_scan, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(oracle, want_oracle, rtol=1e-12, atol=0.0)
    assert cert == pytest.approx(want_cert, rel=2e-9, abs=0.0)
    assert cert <= want_scan[0]


def test_a_short_edge_chain_keeps_both_routes_and_its_ground_state():
    # The 1e-160 edge's poles, (n pi / 1e-160)^2, lie past the float range:
    # both routes and the ground state see the unit edge's alone.
    g = gr.chain([1.0, 1e-160])
    coup = delta_problem(g, 0.3)
    assert sp.decoupled_ground_state(g) == math.pi * math.pi
    scan = sp.scan_spectrum(g, coup, (-5.0, 30.0))
    oracle = sp.oracle_eigenvalues(g, coup, (-5.0, 30.0))
    assert scan.values == pytest.approx([0.81955716, 11.587015], rel=1e-7)
    np.testing.assert_allclose(scan.values, oracle.values, rtol=1e-9, atol=0.0)


def test_krein_matrix_is_real_where_its_values_are():
    # Delta couplings at real lambda give K in float64, in both edge models;
    # a complex lambda or complex coupling data give complex128.
    from test_pairing import dirac_star_custom_centre

    for model in (em.Laplacian(), Dirac(1.0)):
        g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=model)
        coup = delta_problem(g, 0.5)
        assert sp.krein_matrix(g, coup, 0.3).dtype == np.float64
        assert sp.krein_matrix(g, coup, [0.3, -1.7]).dtype == np.float64
        assert sp.krein_matrix(g, coup, 0.3 + 0.1j).dtype == np.complex128
    custom, coup, _ = dirac_star_custom_centre()
    assert sp.krein_matrix(custom, coup, 0.3).dtype == np.complex128


def test_match_spectra_keeps_unpaired_roots():
    assert sp.match_spectra([1.0, 2.0], [1.0]) == ([(1.0, 1.0)], [2.0], [])


def test_certificate_sound_against_oracle():
    fixtures = [
        (gr.interval(1.0), 0.0),
        (gr.interval(1.0), -2.0),
        (gr.star(3, lengths=[1.0, 0.7, 1.3]), [1.0, -1.5, 0.0, 0.5]),
    ]
    for g, alpha in fixtures:
        coup = delta_problem(g, alpha)
        cert = sp.lower_bound_certificate(g, coup)
        assert cert is not None
        oracle = sp.oracle_eigenvalues(g, coup, (cert - 1.0, 5.0))
        assert oracle.roots, "oracle found no eigenvalue above the certificate"
        assert min(oracle.values) >= cert - 1e-6


def test_mixed_halfline_and_finite_edge():
    g = MetricGraph(("c", "b"),
                    (Edge("e", "c", "b", 1.0), Edge("h", "c", None, math.inf)))
    coup = cp.delta_coupling(g, {"c": -3.0, "b": 0.0})
    scan = sp.scan_spectrum(g, coup, (-6.0, -1e-4))
    cert = sp.lower_bound_certificate(g, coup)
    assert cert is not None
    if scan.roots:
        assert min(scan.values) >= cert - 1e-9


def test_custom_coupling_reproduces_delta_dirac():
    # The delta data written out as an explicit custom coupling must give
    # identical spectra through both routes (checks the phase handling of
    # the custom path end to end).
    g = MetricGraph(("a", "m", "z"),
                    (Edge("e1", "a", "m", 1.0), Edge("e2", "m", "z", 0.7)),
                    Dirac(1.0))
    alpha = {"a": 0.5, "m": -1.0, "z": 0.2}
    delta = cp.delta_coupling(g, alpha)
    spec = {}
    for v, block in delta.blocks.items():
        spec[v] = (block.basis.T, block.matrix)
    custom = cp.custom_coupling(g, spec)
    window = (-3.0, 3.0)
    scan_d = sp.scan_spectrum(g, delta, window)
    scan_c = sp.scan_spectrum(g, custom, window)
    assert np.allclose(scan_d.values, scan_c.values, atol=1e-9)
    orc_c = sp.oracle_eigenvalues(g, custom, window)
    pairs, only_a, only_b = sp.match_spectra(scan_c.values, orc_c.values,
                                             scan_c.excluded, rtol=1e-6)
    assert not only_a and not only_b


def test_oracle_complex_rows_minima_path():
    # A phase-jump vertex: trace data along span{(1, i)} at the middle
    # vertex of a Laplacian chain.  The oracle matrix is genuinely complex,
    # so roots come from the singular-value minimization path.
    g = MetricGraph(("a", "m", "z"),
                    (Edge("e1", "a", "m", 1.0), Edge("e2", "m", "z", 1.0)))
    spec = {"m": ([[1.0, 1.0j]], [[0.0]])}
    coup = cp.custom_coupling(g, spec)
    window = (-2.0, 30.0)
    scan = sp.scan_spectrum(g, coup, window)
    orc = sp.oracle_eigenvalues(g, coup, window)
    pairs, only_a, only_b = sp.match_spectra(scan.values, orc.values,
                                             scan.excluded, rtol=1e-5)
    assert len(pairs) >= 2
    assert not only_a


def test_scan_rejects_bad_window():
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    with pytest.raises(ValueError):
        sp.scan_spectrum(g, coup, (3.0, -3.0))
    g2, coup2 = two_halflines(-2.0)
    with pytest.raises(ValueError):
        sp.scan_spectrum(g2, coup2, (-1.0, 1.0))


@pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 10.0), (0.0, math.nan)])
def test_routes_reject_non_finite_windows(window, monkeypatch):
    # Rejected up front: the pole search of an infinite window never ends.
    def no_pole_search(g, window):
        raise AssertionError("pole search reached")

    monkeypatch.setattr(sp, "_decoupled_in_window", no_pole_search)
    g = gr.star(3, lengths=1.0)
    coup = delta_problem(g, 0.0)
    for route in (sp.scan_spectrum, sp.oracle_eigenvalues):
        with pytest.raises(ValueError, match="window bounds must be finite"):
            route(g, coup, window)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_routes_reject_bad_tol(tol):
    # tol = 0 made the oracle's mesh-doubling budget 0 (a spurious
    # OracleConvergenceError), and tol = nan made the scan's merge test
    # false, splitting the double roots of this star.
    g = gr.star(3, lengths=1.0)
    coup = delta_problem(g, 0.0)
    for route in (sp.scan_spectrum, sp.oracle_eigenvalues):
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            route(g, coup, (1.0, 12.0), tol=tol)


@pytest.mark.parametrize("samples", [0, 1])
def test_oracle_rejects_fewer_than_two_samples(samples):
    # A grid of fewer than two samples has no sign change, so the roots at
    # pi^2 in this window went unreported.
    g = gr.star(3, lengths=1.0)
    with pytest.raises(ValueError, match="samples must be at least 2"):
        sp.oracle_eigenvalues(g, delta_problem(g, 0.0), (1.0, 12.0), samples=samples)


def test_scan_rejects_pole_only_window(monkeypatch):
    # The window is refused before K is compiled.
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    p = math.pi ** 2

    def compile_refused(*args):
        raise AssertionError("a pole-only window was compiled")

    monkeypatch.setattr(sp, "_CompiledPairing", compile_refused)
    with pytest.raises(ValueError, match="pole neighborhoods only"):
        sp.scan_spectrum(g, coup, (p - 1e-9, p + 1e-9))


def test_even_count_jump_stops_where_the_roots_part():
    # Counts 0 below 0.4, 1 up to 0.6 and 2 above: the first midpoint, 0.5,
    # parts the two roots, and the bracket returns its center.
    def counts(lams):
        return [(0 if x < 0.4 else 1 if x < 0.6 else 2, 1.0, 0.0) for x in lams]

    task = sp._bracket_root(0.0, 1.0, (0, 1.0, 0.0), (2, 1.0, 0.0))
    assert sp._lockstep([task], counts) == [0.5]


def test_oracle_drops_a_min_candidate_without_a_kernel():
    # The smallest singular-value ratio bottoms out at 1e-3 near 0.5, far
    # above a numerical kernel: the |det| dip is spurious.
    def sigma(requests):
        assert {kind for kind, _, _ in requests} == {"sigma"}
        return [[(1e-3 + (lam - 0.5) ** 2, None) for lam in lams] for _, lams, _ in requests]

    task = sp._oracle_root(0.0, 1.0, "min", (0.0, 1.0), 2000, 1e-8)
    assert sp._lockstep([task], sigma) == [None]


def test_oracle_merges_candidates_that_reach_one_root(monkeypatch):
    # Two candidates polished to one root within the merge radius give one
    # root, the one of lower residual.
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    coup = delta_problem(g, 1.0)
    window = (0.5, 6.0)
    grid = np.linspace(*window, 600)
    i = int(np.searchsorted(grid, 5.6608)) - 1  # the sign change at 5.66078
    bracket, wider = (grid[i], grid[i + 1], "sign"), (grid[i - 1], grid[i + 1], "sign")

    def roots(*candidates):
        monkeypatch.setattr(sp, "_grid_candidates", lambda grid, dets, real: list(candidates))
        return sp.oracle_eigenvalues(g, coup, window).roots

    (alone,), (widened,) = roots(bracket), roots(wider)
    assert abs(alone.lam - 5.66078) < 1e-5
    assert roots(bracket, bracket) == (alone,)
    assert roots(bracket, wider) == (min(alone, widened, key=lambda r: r.residual),)


def test_oracle_rejects_halflines():
    g, coup = two_halflines(-2.0)
    with pytest.raises(ValueError):
        sp.oracle_eigenvalues(g, coup, (-5.0, -1.0))


def test_csv_format():
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    scan = sp.scan_spectrum(g, coup, (-1.0, 12.0))
    text = sp.spectrum_csv(scan)
    lines = text.strip().split("\n")
    assert lines[0] == "method,lambda,residual,multiplicity,flag"
    assert all(len(line.split(",")) == 5 for line in lines[1:])
    assert sp.spectrum_csv(scan) == text  # deterministic


def test_short_edge_chain_roots_are_simple():
    # K has entries of order 1/l_min here; only branch crossings count
    # towards multiplicity, and every root of these chains is simple.
    for depth in (30, 40):
        g = gr.geometric_chain(0.5, 0.5, depth)
        res = sp.scan_spectrum(g, cp.delta_coupling(g, gr.alpha_map(g, 0.3)), (-1.0, 60.0))
        assert len(res.roots) == 3
        assert [r.multiplicity for r in res.roots] == [1, 1, 1]


def test_graph_wide_pole_budget_raises_before_listing_any_pole(monkeypatch):
    # Each unit edge spans about 604,000 pole indices of the window, under
    # the cap of 10**6 per edge; the three edges of the star together are
    # over it, and both routes refuse the window before any pole is listed.
    g = gr.star(3, lengths=1.0)
    coupling = cp.delta_coupling(g, gr.alpha_map(g, 0.0))
    window = (0.0, 3.6e12)
    lo, hi = em._index_span(em.Laplacian(), 1.0, window)
    assert 6 * 10 ** 5 < hi - lo < em._MAX_POLE_INDICES
    calls = []
    pole = em.Laplacian._pole
    monkeypatch.setattr(em.Laplacian, "_pole", staticmethod(lambda k: calls.append(k) or pole(k)))
    for route in (sp.scan_spectrum, sp.oracle_eigenvalues):
        with pytest.raises(em.EdgeModelError, match="graph-wide pole index cap of 1000000"):
            route(g, coupling, window)
    assert calls == []


@pytest.mark.parametrize("model", [em.Laplacian(), Dirac(1.0)], ids=["laplacian", "dirac"])
def test_numpy_lengths_give_the_bytes_of_float_lengths(model):
    # Edge stores its length as a Python float: with an np.float64 length,
    # M'(lambda) would divide np.complex128 values the numpy way and differ
    # in its last bits.
    lengths = np.geomspace(0.05, 3.0, 9)
    names = [f"v{i}" for i in range(len(lengths) + 1)]

    def tree(ells):
        return MetricGraph(tuple(names), tuple(
            Edge(f"e{i}", names[i // 2], names[i + 1], ell) for i, ell in enumerate(ells)), model)

    g64, g = tree(list(lengths)), tree(lengths.tolist())
    assert all(type(e.length) is float for e in g64.edges)
    alpha = gr.alpha_map(g, np.linspace(-1.0, 1.0, len(names)).tolist())
    for lam in (-3.0, 0.37, 2.5, 0.4 + 0.3j):
        want = sp.krein_matrix(g, cp.delta_coupling(g, alpha), lam)
        assert sp.krein_matrix(g64, cp.delta_coupling(g64, alpha), lam).tobytes() == want.tobytes()
        for e64, e in zip(g64.edges, g.edges):
            m = gr.edge_model_for(model, e)
            want = em.weyl_derivative(m, e.length, lam).tobytes()
            assert em.weyl_derivative(m, e64.length, lam).tobytes() == want


def test_scan_roots_are_python_floats_for_numpy_window_ends():
    # The cells and Brent's steps run on Python floats whatever the type of
    # the window ends, and the roots are the same to the bit.
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    coupling = delta_problem(g, 0.4)
    want = sp.scan_spectrum(g, coupling, (-3.0, 30.0))
    got = sp.scan_spectrum(g, coupling, (np.float64(-3.0), np.float64(30.0)))
    assert len(want.roots) >= 4
    for res in (want, got):
        assert all(type(r.lam) is float and type(r.residual) is float for r in res.roots)
        assert all(type(p) is float for p in res.excluded)
    assert got.roots == want.roots and got.excluded == want.excluded


def _reference_poles(g, window):
    """The decoupled eigenvalues in ``window`` from a plain loop over the
    edges and their wavenumber indices (scalar ``_pole``), merged as the
    scan merges them: a pole within 1e-12 max(1, |p|) of the last one kept
    is dropped."""
    a, b = window
    first, offset, extra = g.model._poles["graph"]
    ends = [g.model._wavenumber(abs(x)) for x in window]
    vals = []
    for e in g.edges:
        if e.is_half_line:
            continue
        vals.extend(x for x in extra if a <= x <= b)
        k_lo = 0.0 if a <= 0 <= b else min(ends)
        n_lo = max(first, math.floor(e.length * k_lo / math.pi - offset) - 3)
        n_hi = math.ceil(e.length * max(ends) / math.pi - offset) + 3
        for n in range(n_lo, n_hi + 1):
            vals.extend(p for p in g.model._pole((n + offset) * math.pi / e.length)
                        if a <= p <= b)
    out = []
    for v in sorted(vals):
        if not out or abs(v - out[-1]) > 1e-12 * max(1.0, abs(v)):
            out.append(v)
    return out


def _pole_graphs():
    tree = gr.random_graph(7, 15)
    dirac = gr.random_graph(8, 12, model=Dirac(1.0))
    # Lengths 1 + 4e-13 j: poles (n pi / l)^2 about 8e-13 j apart (relative),
    # so the second merges into the first and the third, 1.6e-12 from the
    # first, is kept although it lies within 1e-12 of the second.
    close = gr.star(4, lengths=[1.0, 1.0 + 4e-13, 1.0 + 8e-13, 1.0])
    return {"laplacian": tree, "dirac": dirac, "close": close}


@pytest.mark.parametrize("name", ["laplacian", "dirac", "close"])
def test_pole_list_equals_a_per_edge_reference_loop(name):
    g = _pole_graphs()[name]
    poles = sp._decoupled_in_window(g, (-60.0, 60.0))
    windows = [(-60.0, 60.0), (-3.0, 40.0), (-0.5, 0.5), (2.0, 7.0), (-45.0, -2.0),
               (poles[1], poles[-2]),                     # both ends on a pole
               (np.nextafter(poles[1], math.inf), poles[-1]),
               (1e12, 1e12 + 1.0), (-1e12 - 1.0, -1e12)]  # far windows
    for window in windows:
        got = sp._decoupled_in_window(g, window)
        assert got.tolist() == _reference_poles(g, window), window
    if name == "dirac":
        assert -0.5 in poles.tolist()  # the gap pole -c^2/2, once
    if name == "close":
        ground = [p for p in poles.tolist() if p < 12.0]
        assert len(ground) == 2 and ground[1] > ground[0] * (1 + 1e-12)


def test_pole_list_of_a_half_line_graph_is_empty():
    g, _ = two_halflines(-2.0)
    assert sp._decoupled_in_window(g, (-50.0, -1.0)).size == 0
    mixed = MetricGraph(("a", "b"), (Edge("h", "a", None, math.inf),
                                     Edge("e", "a", "b", 1.0)))
    assert sp._decoupled_in_window(mixed, (-5.0, 50.0)).tolist() == [math.pi ** 2, 4 * math.pi ** 2]


@pytest.mark.parametrize("model", [em.Laplacian(), Dirac(1.0), Dirac(3.7)],
                         ids=["laplacian", "dirac1", "dirac3.7"])
def test_array_poles_are_the_bytes_of_scalar_poles(model):
    # Python's k ** 2 is C's pow, which with glibc rounds k * k differently
    # for about one k in a thousand; the array poles keep the scalar bytes.
    k = np.arange(1, 20001) * math.pi / 0.37
    got = np.stack(model._pole(k), -1)
    want = np.array([model._pole(x) for x in k.tolist()])
    assert got.tobytes() == want.tobytes()


def test_pole_guard_calls_the_pole_once_per_sample(monkeypatch):
    # One array _pole call covers both candidate indices of every edge at
    # all six samples, which lie below 0 and so share the wavenumber 0; the
    # distances and nearest poles keep the scalar bytes.
    g = gr.binary_tree(7)
    reg = build_regularization(g)
    calls = []
    pole = em.Laplacian._pole
    monkeypatch.setattr(em.Laplacian, "_pole", staticmethod(lambda k: calls.append(k) or pole(k)))
    cr.check_mtilde_divergence(g, reg)
    assert len(calls) == 1 and calls[0].shape == (len(g.edges), 1, 2)
    lengths = np.array([e.length for e in g.edges])
    for lam in (-10.0, 3.0, 50.0):
        dist, near, _, _, _ = em._responses(g.model, lengths, lam)
        want = [em.pole_distance(g.model, e.length, lam) for e in g.edges]
        assert (dist.tolist(), near.tolist()) == tuple(map(list, zip(*want)))


def dirac_delta_tree(c, seed):
    g = gr.random_graph(seed, 8, model=Dirac(c))
    rng = np.random.default_rng(seed)
    return g, {v: float(rng.uniform(-2.0, 2.0)) for v in g.vertices}


def laplacian_jump(g, alpha, lam, eps):
    """Roots in [k^2 - eps, k^2 + eps) of the Laplacian delta problem on the
    edges of the Dirac graph ``g`` at k^2 = (lam - c^2/2)(lam + c^2/2)/c^2,
    with strengths alpha_v (lam + c^2/2)/c^2: the jump of its n_minus."""
    c2 = g.model.c ** 2
    k2, scale = (lam - c2 / 2) * (lam + c2 / 2) / c2, (lam + c2 / 2) / c2
    lap = MetricGraph(g.vertices, g.edges, em.Laplacian())
    coupling = cp.delta_coupling(lap, {v: a * scale for v, a in alpha.items()})
    inertia = sp._Inertia(lap, coupling, cp._CompiledPairing(lap, coupling))
    eps = eps * max(1.0, abs(k2))
    lo, hi = inertia.many([k2 - eps, k2 + eps])
    return hi[0] - lo[0]


@pytest.mark.parametrize("c,seed", [(1.0, 3), (1.0, 5), (3.0, 3), (3.0, 5)])
def test_dirac_delta_roots_are_laplacian_delta_roots(c, seed):
    # The paper's Dirac application reduced exactly: psi1 solves
    # -psi'' = k^2 psi on every edge, and the Dirac delta condition at v is
    # the Laplacian one with strength alpha_v (lam + c^2/2)/c^2 (M(lam) =
    # rho D^H M_L D, rho = c^2/(lam + c^2/2)).  Both sides of the window
    # hold roots, below -c^2/2 with the strengths' signs turned.
    g, alpha = dirac_delta_tree(c, seed)
    coupling = cp.delta_coupling(g, alpha)
    window = (-c * c / 2 - 30.0, c * c / 2 + 30.0)
    scan = sp.scan_spectrum(g, coupling, window)
    below, above = (sum(r.lam < -c * c / 2 for r in scan.roots),
                    sum(r.lam > c * c / 2 for r in scan.roots))
    assert below > 5 and above > 5
    # The scan polishes to about two ulps of lambda, and k^2 and the strengths
    # are smooth in lambda (slopes 2 lam / c^2 and alpha_v / c^2), so each root
    # maps to within a few ulps of max(1, |k^2|) (measured: 1e-14 here, 1.9e-14
    # on other trees): 1e-12 of it holds the root and no second one, while a
    # root moved by 1e-10 relative leaves it.
    for r in scan.roots:
        assert laplacian_jump(g, alpha, r.lam, 1e-12) == r.multiplicity, r
    if c == 1.0:
        # The oracle integrates the Dirac system by RK4, without _reduce.  It
        # accepts a root that mesh doubling moves by at most 10 tol max(1,
        # |lam|) = 1e-7 max(1, |lam|).  With c = 1 that moves k^2 = lam^2 -
        # 1/4 by at most 2.5e-7 max(1, |k^2|), and each strength by 2e-7
        # max(1, |lam|), which moves a Laplacian root by at most
        # sum_v |psi(v)|^2 / ||psi||^2 (a few tens on these edges, 0.5 to 2
        # long, at |k| <= 31) times it: 1e-5 of max(1, |k^2|) holds every
        # root (measured: 1e-9).
        oracle = sp.oracle_eigenvalues(g, coupling, window)
        assert len(oracle.roots) > 10
        for r in oracle.roots:
            if r.flag == "ok":
                assert laplacian_jump(g, alpha, r.lam, 1e-5) == r.multiplicity, r
