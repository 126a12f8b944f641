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
    calls = []
    krein = sp.krein_matrix

    def counted(*args, **kwargs):
        calls.append(args[2])
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


def test_scan_rejects_pole_only_window():
    g = gr.interval(1.0)
    coup = delta_problem(g, 0.0)
    p = math.pi ** 2
    with pytest.raises(ValueError):
        sp.scan_spectrum(g, coup, (p - 1e-9, p + 1e-9))


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
