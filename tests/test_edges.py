from __future__ import annotations

import csv
import importlib.util
import math
import pathlib
import warnings

import numpy as np
import pytest

from graphspectra import edges as em
from graphspectra.graphs import star
from graphspectra.regularize import build_regularization
from graphspectra.spectra import _transfer_stack


LAP = em.Laplacian()
HALF = em.HalfLineLaplacian()


def hermitian_part_check(m):
    return np.linalg.eigvalsh((m - m.conj().T) / 2j)


@pytest.mark.parametrize("ell", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("c", [1.0, 137.0])
def test_dirac_hat_gap_values(ell, c):
    model = em.Dirac(c)
    lam0 = c * c / 2
    value = em.weyl(model, ell, lam0, triplet="hat")
    assert np.max(np.abs(value - np.array([[0, 1], [1, ell]]))) < 1e-9
    deriv = em.weyl_derivative(model, ell, lam0, triplet="hat")
    expected = np.array([[ell, ell ** 2 / 2],
                         [ell ** 2 / 2, ell / c ** 2 + ell ** 3 / 3]])
    assert np.max(np.abs(deriv - expected)) < 1e-9


@pytest.mark.parametrize("ell", [0.1, 1.0, 2.0])
@pytest.mark.parametrize("c", [1.0, 137.0])
def test_dirac_graph_triplet_gap_values(ell, c):
    # Derived by eliminating psi2 from the first-order system with the
    # value/scaled-derivative trace maps; fixed by the finite-difference
    # and transfer-matrix cross-checks below and by the hat-triplet
    # transform identity.
    model = em.Dirac(c)
    lam0 = c * c / 2
    value = em.weyl(model, ell, lam0)
    expected = np.array([[-1, -1j], [1j, -1]]) / ell
    assert np.max(np.abs(value - expected)) < 1e-9
    deriv = em.weyl_derivative(model, ell, lam0)
    a = 1 / (ell * c * c) + ell / 3
    bo = 1 / (ell * c * c) - ell / 6
    expected_d = np.array([[a, 1j * bo], [-1j * bo, a]])
    assert np.max(np.abs(deriv - expected_d)) < 1e-9


def test_graph_triplet_is_hat_transform():
    model = em.Dirac(1.0)
    for lam in [0.5, 0.9, -0.1, 2.4, 0.3 + 0.4j]:
        hat = em.weyl(model, 1.0, lam, triplet="hat")
        direct = em.weyl(model, 1.0, lam)
        transformed = em.transform_triplet(hat, em.DIRAC_GRAPH_FROM_HAT)
        assert np.max(np.abs(direct - transformed)) < 1e-10


def test_laplacian_zero_limit():
    value = em.weyl(LAP, 1.0, 0.0)
    assert np.max(np.abs(value - np.array([[-1, 1], [1, -1]]))) < 1e-12
    deriv = em.weyl_derivative(LAP, 1.0, 0.0)
    assert np.max(np.abs(deriv - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]))) < 1e-12


def test_laplacian_series_matches_direct_formula():
    # Continuity across the |w| = 1e-3 series cutoff.
    for lam in [9.9e-4, 1.01e-3, -9.9e-4, -1.01e-3]:
        m_series = em.weyl(LAP, 1.0, lam)
        k = np.sqrt(complex(lam))
        direct = np.array([
            [-k * np.cos(k) / np.sin(k), k / np.sin(k)],
            [k / np.sin(k), -k * np.cos(k) / np.sin(k)],
        ])
        assert np.max(np.abs(m_series - direct)) < 1e-11


def test_norm_prime_examples():
    assert abs(em.weyl_norm_prime(em.Dirac(1.0), 1.0) - 13 / 6) < 1e-12
    assert abs(em.weyl_norm_prime(LAP, 1.0) - 0.5) < 1e-12
    assert abs(em.weyl_norm_prime(LAP, 2.0) - 1.0) < 1e-12
    with pytest.raises(em.EdgeModelError, match=r"^lambda0 must be real, got \(1\+2j\)$"):
        em.weyl_norm_prime(LAP, 1.0, 1 + 2j)
    with pytest.raises(em.EdgeModelError,
                       match="^half-line edges need an explicit lambda0 < 0$"):
        em.weyl_norm_prime(HALF, math.inf)


def test_norm_prime_dirac_closed_form():
    # a + |b| for the 2x2 Hermitian with equal diagonal a and off-diagonal b.
    for ell in (0.1, 0.7, 2.0):
        for c in (0.5, 1.0, 10.0):
            a = 1 / (ell * c * c) + ell / 3
            b = abs(1 / (ell * c * c) - ell / 6)
            got = em.weyl_norm_prime(em.Dirac(c), ell)
            assert abs(got - (a + b)) < 1e-12 * max(1.0, a + b)


def test_norm_prime_dirac_lower_bound_sampled():
    rng = np.random.default_rng(42)
    for _ in range(100):
        ell = float(rng.uniform(0.01, 10.0))
        c = float(rng.uniform(0.5, 300.0))
        val = em.weyl_norm_prime(em.Dirac(c), ell)
        assert val >= 1.0 / (ell * c * c)


def test_transform_identity_and_blockdiag():
    m = em.weyl(em.Dirac(1.0), 1.0, 0.8, triplet="hat")
    assert np.max(np.abs(em.transform_triplet(m, np.eye(4)) - m)) < 1e-14
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    w = np.block([[q, np.zeros((2, 2))], [np.zeros((2, 2)), q]])
    assert np.max(np.abs(em.transform_triplet(m, w) - q @ m @ q.conj().T)) < 1e-12


def test_transform_rejects_nonunitary():
    m = em.weyl(LAP, 1.0, -1.0)
    with pytest.raises(em.EdgeModelError, match="^trace-map transform must be unitary$"):
        em.transform_triplet(m, 2.0 * np.eye(4))
    with pytest.raises(em.EdgeModelError, match=r"^block matrix must be 4x4, got \(2, 2\)$"):
        em.transform_triplet(m, np.eye(2))
    # W00 = 0 and W01 = I leave W00 + W01 M = M, here singular.
    swap = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    with pytest.raises(em.EdgeModelError,
                       match=r"^singular W00 \+ W01\*M in trace-map transform$"):
        em.transform_triplet(np.ones((2, 2)), swap)


@pytest.mark.parametrize("model,lams", [
    (LAP, [-3.0, -1.0, 0.5, 2.0]),
    (em.Dirac(1.0), [-0.3, 0.2, 0.5, 1.5]),
])
def test_defect_element_boundary_consistency(model, lams):
    rng = np.random.default_rng(1)
    for lam in lams:
        g0 = rng.normal(size=2) + 1j * rng.normal(size=2)
        el = em.defect_element(model, 1.3, lam, g0)
        b0, b1 = el.boundary_data()
        assert np.max(np.abs(b0 - g0)) < 1e-10
        m = em.weyl(model, 1.3, lam)
        assert np.max(np.abs(b1 - m @ g0)) < 1e-9


def test_defect_element_halfline():
    el = em.defect_element(HALF, math.inf, -4.0, [2.0])
    with pytest.raises(em.EdgeModelError, match=r"^gamma0 must have shape \(1,\), got \(2,\)$"):
        em.defect_element(HALF, math.inf, -4.0, [2.0, 1.0])
    with pytest.raises(em.EdgeModelError, match="^Green identity check is for finite edges$"):
        em.green_identity_residual(el, el)
    b0, b1 = el.boundary_data()
    assert abs(b0[0] - 2.0) < 1e-14
    assert abs(b1[0] - (-2.0) * 2.0) < 1e-12
    x = np.linspace(0, 3, 7)
    vals = el.values(x)
    assert np.max(np.abs(vals - 2.0 * np.exp(-2.0 * x))) < 1e-12


def test_defect_element_solves_ode():
    # psi'' = -lam psi checked by second differences for the Laplacian.
    el = em.defect_element(LAP, 1.0, -2.5, [1.0, 0.5])
    h = 1e-4
    x = np.array([0.3 - h, 0.3, 0.3 + h])
    v = el.values(x)
    second = (v[0] - 2 * v[1] + v[2]) / h ** 2
    assert abs(second - 2.5 * v[1]) < 1e-5


def test_green_identity_symmetric_case():
    f = em.defect_element(LAP, 1.0, -1.0, [1.0, 0.25])
    assert abs(em.green_identity_residual(f, f)) < 1e-12


def test_green_identity_examples():
    f = em.defect_element(LAP, 1.0, -1.0, [1.0, 0.0])
    g = em.defect_element(LAP, 1.0, -2.0, [0.0, 1.0])
    assert abs(em.green_identity_residual(f, g)) < 1e-8
    d = em.Dirac(1.0)
    f = em.defect_element(d, 1.0, 0.6, [1.0, 0.0])
    g = em.defect_element(d, 1.0, 0.4, [0.0, 1.0])
    assert abs(em.green_identity_residual(f, g)) < 1e-8
    with pytest.raises(em.EdgeModelError, match="^defect elements must live on the same edge$"):
        em.green_identity_residual(f, em.defect_element(d, 2.0, 0.4, [0.0, 1.0]))


def test_green_identity_random_pairs():
    rng = np.random.default_rng(7)
    models = [LAP, em.Dirac(1.0), em.Dirac(2.0)]
    for _ in range(60):
        model = models[rng.integers(0, len(models))]
        ell = float(rng.uniform(0.3, 2.0))
        if isinstance(model, em.Laplacian):
            lam, mu = rng.uniform(-8.0, 2.0, size=2)
        else:
            lam, mu = model.c ** 2 / 2 + rng.uniform(-0.4, 0.4, size=2)
        try:
            f = em.defect_element(model, ell, lam,
                                  rng.normal(size=2) + 1j * rng.normal(size=2))
            g = em.defect_element(model, ell, mu,
                                  rng.normal(size=2) + 1j * rng.normal(size=2))
        except em.PoleOfWeylError:
            continue
        assert abs(em.green_identity_residual(f, g)) < 1e-8


def test_decoupled_eigenvalues_laplacian():
    vals = em.decoupled_eigenvalues(LAP, 1.0, count=3)
    assert np.allclose(vals, [np.pi ** 2, 4 * np.pi ** 2, 9 * np.pi ** 2])
    vals = em.decoupled_eigenvalues(LAP, 1.0, window=(50.0, 95.0))
    assert np.allclose(vals, [9 * np.pi ** 2])


def test_decoupled_eigenvalues_dirac():
    c = 1.0
    vals = em.decoupled_eigenvalues(em.Dirac(c), 1.0, window=(-12.0, 12.0))
    expect = sorted([-c * c / 2]
                    + [s * math.sqrt((n * math.pi) ** 2 + 0.25)
                       for n in (1, 2, 3) for s in (1, -1)])
    expect = [v for v in expect if -12 <= v <= 12]
    assert np.allclose(vals, expect)
    hat = em.decoupled_eigenvalues(em.Dirac(c), 1.0, window=(-12.0, 12.0),
                                   triplet="hat")
    expect_hat = sorted(s * math.sqrt(((n + 0.5) * math.pi) ** 2 + 0.25)
                        for n in (0, 1, 2, 3) for s in (1, -1))
    expect_hat = [v for v in expect_hat if -12 <= v <= 12]
    assert np.allclose(hat, expect_hat)


def test_decoupled_window_excluding_all_poles_is_empty():
    assert em.decoupled_eigenvalues(LAP, 1.0, window=(-5.0, 5.0)).size == 0
    assert em.decoupled_eigenvalues(HALF, math.inf, window=(-5.0, -1.0)).size == 0


@pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_decoupled_eigenvalues_reject_non_finite_windows(window, monkeypatch):
    # With a non-finite bound the pole loop never ends; past wavenumber 1e4
    # it fails here instead of hanging.
    def bounded(pole):
        def call(*args):
            if args[-1] > 1e4:
                raise AssertionError("pole loop does not end")
            return pole(*args)
        return call

    monkeypatch.setattr(em.Laplacian, "_pole", staticmethod(bounded(em.Laplacian._pole)))
    monkeypatch.setattr(em.Dirac, "_pole", bounded(em.Dirac._pole))
    for model, ell in ((LAP, 1.0), (em.Dirac(1.0), 1.0), (HALF, math.inf)):
        with pytest.raises(em.EdgeModelError, match="finite"):
            em.decoupled_eigenvalues(model, ell, window=window)


def test_pole_errors_carry_nearest_pole():
    with pytest.raises(em.PoleOfWeylError) as err:
        em.weyl(LAP, 1.0, np.pi ** 2 + 1e-12)
    assert abs(err.value.nearest_pole - np.pi ** 2) < 1e-9
    with pytest.raises(em.PoleOfWeylError):
        em.weyl(em.Dirac(1.0), 1.0, -0.5)
    with pytest.raises(em.EdgeModelError):
        em.weyl(HALF, math.inf, 3.0)


def test_herglotz_property_sampled():
    rng = np.random.default_rng(123)
    cases = [(LAP, "graph"), (em.Dirac(1.3), "graph"), (em.Dirac(1.3), "hat")]
    for _ in range(40):
        model, triplet = cases[rng.integers(0, len(cases))]
        ell = float(rng.uniform(0.2, 3.0))
        lam = complex(rng.uniform(-10, 10), rng.uniform(0.1, 5.0))
        m = em.weyl(model, ell, lam, triplet=triplet)
        assert np.min(hermitian_part_check(m)) > -1e-10
    for _ in range(10):
        lam = complex(rng.uniform(-10, 10), rng.uniform(0.1, 5.0))
        m = em.weyl(HALF, math.inf, lam)
        assert m[0, 0].imag > 0


def test_conjugate_symmetry_sampled():
    rng = np.random.default_rng(321)
    for model in [LAP, em.Dirac(0.7)]:
        for _ in range(20):
            ell = float(rng.uniform(0.2, 3.0))
            lam = complex(rng.uniform(-5, 5), rng.uniform(-3, 3))
            if abs(lam.imag) < 1e-3:
                continue
            m1 = em.weyl(model, ell, lam)
            m2 = em.weyl(model, ell, np.conj(lam))
            assert np.max(np.abs(m2 - m1.conj().T)) < 1e-10 * max(1, np.max(np.abs(m1)))


def test_derivative_positive_definite_on_real_gaps():
    for model, ell, lams in [(LAP, 1.0, [-6.0, -1.0, 0.0, 3.0]),
                             (em.Dirac(1.0), 1.0, [-0.4, 0.0, 0.5, 1.1]),
                             (em.Dirac(137.0), 7.0, [5.0, 1000.0, -2815.35])]:
        for lam in lams:
            d = em.weyl_derivative(model, ell, lam)
            assert np.min(np.linalg.eigvalsh(d)) > 0


# 60-digit references for M_11 and M'_11 of the Dirac graph triplet deep in
# the gap, where l^2 k^2 is far below -1 (the hyperbolic kernel branch).
@pytest.mark.parametrize("ell,lam,m11,dm11", [
    (7.0, 5.0, -136.92702673392995, 0.014590768352417067),
    (7.0, -2815.35, -186.69952942017365, 0.02186204039044668),
    (11.0, 0.0, -137.0, 0.014598540145985401),
])
def test_dirac_deep_gap_references(ell, lam, m11, dm11):
    model = em.Dirac(137.0)
    assert abs(em.weyl(model, ell, lam)[0, 0] - m11) <= 1e-12 * abs(m11)
    assert abs(em.weyl_derivative(model, ell, lam)[0, 0] - dm11) <= 1e-12 * abs(dm11)


# 60-digit references for the diagonals of M and M' under the Dirac hat maps
# deep in the gap; the off-diagonals are of order sech(l k) and underflow.
@pytest.mark.parametrize("ell,lam,m,dm", [
    (7.0, 5.0, [-136.92702673392995, 0.0073031601127449602],
     [0.014590768352417067, 7.7821537491450561e-7]),
    (11.0, 0.0, [-137.0, 0.0072992700729927007],
     [0.014598540145985401, 7.7780063647426083e-7]),
])
def test_dirac_hat_deep_gap_references(ell, lam, m, dm):
    model = em.Dirac(137.0)
    for got, want in [(em.weyl(model, ell, lam, triplet="hat"), m),
                      (em.weyl_derivative(model, ell, lam, triplet="hat"), dm)]:
        np.testing.assert_allclose(got.diagonal(), want, rtol=1e-12, atol=0)
        assert abs(got[0, 1]) <= 1e-200 and abs(got[1, 0]) <= 1e-200


# 60-digit references for M_11 and M'_11 at complex lambda; at -1e6 + 1j the
# sine and cosine of sqrt(lambda) overflow.
def test_laplacian_large_imaginary_wavenumber():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        near = em.weyl(LAP, 1.0, -1e6 + 1j), em.weyl_derivative(LAP, 1.0, -1e6 + 1j)
        far = em.weyl(LAP, 1.0, 1e6 + 1e5j), em.weyl_derivative(LAP, 1.0, 1e6 + 1e5j)
    for got, want in [(near[0][0, 0], -1000.000000000125 + 0.0004999999999999375j),
                      (near[1][0, 0], 0.0004999999999998125 + 2.4999999999984375e-10j),
                      (far[0][0, 0], -49.937771837002435 + 1001.2461141278125j),
                      (far[1][0, 0], 2.4844970087019215e-5 + 0.00049813856005520432j)]:
        assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(near[0][0, 1]) <= 1e-300


# 60-digit references for the Dirac hat maps at complex lambda, where the
# sine and cosine of sqrt(w) overflow; M_12 = sec(sqrt(w)) is about 5e-869.
def test_dirac_hat_large_imaginary_wavenumber():
    model = em.Dirac(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = em.weyl(model, 1.0, 0.5 + 2000j, triplet="hat")
        dm = em.weyl_derivative(model, 1.0, 0.5 + 2000j, triplet="hat")
    for got, want, rtol in [
            (m[0, 0], -0.00024999996093750769043 + 0.99999990625001708984j, 1e-13),
            (m[1, 1], 0.00024999999218750085449 + 1.0000000312499975586j, 1e-13),
            (dm[0, 0], 9.3749965820323074338e-11 - 1.2499994140626922607e-7j, 1e-11),
            (dm[1, 1], -3.1249995117188461304e-11 + 1.2499998828125213623e-7j, 1e-11)]:
        assert abs(got - want) <= rtol * abs(want)
    assert abs(m[0, 1]) <= 1e-300 and abs(dm[0, 1]) <= 1e-300


# 60-digit references for a Dirac edge deep in the gap, where sinh and cosh
# of l sqrt(-k^2) = 753.5 overflow: psi1(x) = sinh(k(l - x))/sinh(kl) and
# ic psi2 = rho psi1' with rho = 2, k = c/2.
def test_defect_element_deep_gap_references():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        el = em.defect_element(em.Dirac(137.0), 11.0, 0.0, [1, 0])
        g0, g1 = el.boundary_data()
        vals = el.values([0.01, 0.5, 1.0])
    assert np.array_equal(g0, [1, 0])
    assert abs(g1[0] + 137.0) <= 1e-14 * 137.0 and abs(g1[1]) <= 1e-300
    psi1 = [0.50409022957482551854, 1.3347932285976030013e-15, 1.7816729631100128627e-30]
    np.testing.assert_allclose(vals[0], psi1, rtol=1e-12, atol=0)
    np.testing.assert_allclose(vals[1], 1j * np.array(psi1), rtol=1e-12, atol=0)


# Closed form under the Dirac hat maps at lambda = -c^2/2, the pole of
# rho = c^2/(lambda + c^2/2): k = 0 and 1/rho = 0, so psi1 is constant and
# ic psi2 = (lambda - c^2/2) psi1 (l - x) + ic psi2(l) is linear.  With
# c = 2, l = 0.7 and Gamma0 = (1, 0.5): psi1 = 1, ic psi2 = 0.5 - 4 (0.7 - x).
def test_defect_element_hat_maps_at_rho_pole():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        el = em.defect_element(em.Dirac(2.0), 0.7, -2.0, [1.0, 0.5], triplet="hat")
        g0, g1 = el.boundary_data()
        vals = el.values([0.0, 0.35, 0.7])
    np.testing.assert_allclose(vals[0], [1.0, 1.0, 1.0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(vals[1], [1.15j, 0.45j, -0.25j], rtol=1e-14, atol=1e-15)
    assert np.array_equal(g0, [1.0, 0.5])
    np.testing.assert_allclose(g1, [-2.3, 1.0], rtol=1e-14, atol=0)


# 60-digit references for psi(x) = sin(k(l - x))/sin(kl) at k^2 = -1e6 + 1j,
# where the sine and cosine of k overflow.
def test_defect_element_large_imaginary_wavenumber_references():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        el = em.defect_element(LAP, 1.0, -1e6 + 1j, [1, 0])
        g0, g1 = el.boundary_data()
        vals = el.values([0.001, 0.01, 0.5])
    assert np.array_equal(g0, [1, 0])
    want = -1000.000000000125 + 0.0004999999999999375j
    assert abs(g1[0] - want) <= 1e-14 * abs(want) and abs(g1[1]) <= 1e-300
    np.testing.assert_allclose(
        vals, [0.36787944117135034408 + 1.8393972058566751171e-7j,
               0.000045399929761860593051 + 2.2699964881116625876e-10j,
               7.124576183652987969e-218 + 1.7811440830201929001e-221j],
        rtol=1e-12, atol=0)


# 60-digit reference for a Dirac graph-map derivative at a large phase
# (l k about 8.6e6); rounding the phase already costs about 3e-10.
def test_dirac_derivative_large_phase_reference():
    got = em.weyl_derivative(em.Dirac(0.5), 25.0, 172737.98995525413 + 0.3911519252344373j)
    d11 = 1.0383499580534248301e-15 + 2.0945887598670907463e-12j
    d12 = 1.9587136856324666426e-9 + 1.6039143481050574835e-7j
    want = np.array([[d11, -1j * d12], [1j * d12, d11]])
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


def test_pole_distance_matches_brute_force_nearest():
    # The nearest pole of a complex lambda brackets Re lambda, not |lambda|.
    dist, pole = em.pole_distance(em.Dirac(1.0), 1.0, 5 + 100j)
    assert abs(pole - math.sqrt(4 * math.pi ** 2 + 0.25)) < 1e-12
    assert abs(dist - abs(5 + 100j - pole)) < 1e-12
    rng = np.random.default_rng(11)
    cases = [(LAP, "graph"), (em.Dirac(0.5), "graph"), (em.Dirac(2.0), "graph"),
             (em.Dirac(0.5), "hat"), (em.Dirac(2.0), "hat")]
    for _ in range(300):
        model, triplet = cases[rng.integers(0, len(cases))]
        ell = float(rng.uniform(0.1, 3.0))
        lam = complex(rng.uniform(-60.0, 60.0), rng.choice([0.0, rng.uniform(-80.0, 80.0)]))
        poles = em.decoupled_eigenvalues(model, ell, count=400, triplet=triplet)
        want = poles[np.argmin(np.abs(lam - poles))]
        dist, pole = em.pole_distance(model, ell, lam, triplet)
        assert pole == want
        assert dist == abs(lam - want)


def test_derivative_matches_central_differences():
    rng = np.random.default_rng(5)
    for model, low, high in [(LAP, -8.0, 6.0), (em.Dirac(1.0), -2.0, 2.0)]:
        for _ in range(25):
            lam = float(rng.uniform(low, high))
            try:
                d = em.weyl_derivative(model, 1.0, lam)
            except em.PoleOfWeylError:
                continue
            h = 1e-5 * max(1.0, abs(lam))
            try:
                fd = (em.weyl(model, 1.0, lam + h) - em.weyl(model, 1.0, lam - h)) / (2 * h)
            except em.PoleOfWeylError:
                continue
            denom = max(np.max(np.abs(d)), 1e-12)
            if np.max(np.abs(fd)) > 1e5:
                continue  # too close to a pole for differencing
            assert np.max(np.abs(fd - d)) / denom < 1e-6


def test_deep_negative_laplacian_stable():
    for lam in [-1e4, -1e6, -1e8]:
        m = em.weyl(LAP, 1.0, lam)
        kappa = math.sqrt(-lam)
        assert abs(m[0, 0] + kappa) < 1e-9 * kappa
        assert abs(m[0, 1]) < 1e-6
        d = em.weyl_derivative(LAP, 1.0, lam)
        assert abs(d[0, 0] - 1 / (2 * kappa)) < 1e-9


def test_halfline_values():
    assert abs(em.weyl(HALF, math.inf, -9.0)[0, 0] + 3.0) < 1e-14
    assert abs(em.weyl_derivative(HALF, math.inf, -9.0)[0, 0] - 1 / 6) < 1e-14
    m = em.weyl(HALF, math.inf, 1.0 + 1.0j)[0, 0]
    assert m.imag > 0


def test_weyl_matches_rk4_transfer_matrix():
    # The interval response matrices against the raw ODE transfer matrix:
    # columns of T give the normalized fundamental system.
    for lam in [-3.0, -1.0, 0.7, 5.0]:
        t = _transfer_stack(LAP, np.array([1.0]), [lam], 4096)[0, 0]
        m = em.weyl(LAP, 1.0, lam)
        # Laplacian traces: psi(0), psi(l); psi'(0), -psi'(l).
        gamma0 = np.array([[1.0, 0.0], [t[0, 0], t[0, 1]]])
        gamma1 = np.array([[0.0, 1.0], [-t[1, 0], -t[1, 1]]])
        assert np.max(np.abs(gamma1 - m @ gamma0)) < 1e-8

    c = 1.0
    for lam in [0.2, 0.5, 0.9]:
        t = _transfer_stack(em.Dirac(c), np.array([1.0]), [lam], 4096)[0, 0]
        m = em.weyl(em.Dirac(c), 1.0, lam)
        # Real system (psi1, i psi2); graph traces: (psi1(0), i psi1(l)),
        # (c (i psi2)(0), -i c (i psi2)(l)).
        gamma0 = np.array([[1.0, 0.0], [1j * t[0, 0], 1j * t[0, 1]]])
        gamma1 = np.array([[0.0, c], [-1j * c * t[1, 0], -1j * c * t[1, 1]]])
        assert np.max(np.abs(gamma1 - m @ gamma0)) < 1e-8


@pytest.mark.parametrize("model,triplet", [
    (LAP, "graph"), (em.Dirac(1.0), "graph"), (em.Dirac(3.3), "graph"),
    (em.Dirac(1.0), "hat"), (em.Dirac(3.3), "hat"),
])
def test_decoupled_window_is_count_filtered_to_the_window(model, triplet):
    # Window mode takes its index range from the wavenumber of the window
    # ends; it must list exactly the poles of count mode that lie inside.
    rng = np.random.default_rng(11)
    for ell in [1e-3, 9.0] + rng.uniform(1e-3, 9.0, 6).tolist():
        # Poles of 40 indices: all those in [-top, top], top the largest.
        poles = em.decoupled_eigenvalues(model, ell, count=40, triplet=triplet)
        top = poles[-1]
        windows = [tuple(sorted(rng.uniform(-top, top, 2))) for _ in range(30)]
        for _ in range(30):
            i, j = sorted(rng.integers(0, len(poles), 2))
            windows += [(poles[i], poles[j]), (np.nextafter(poles[i], math.inf), poles[j])]
        for a, b in windows:
            got = em.decoupled_eigenvalues(model, ell, window=(a, b), triplet=triplet)
            want = poles[(a <= poles) & (poles <= b)]
            assert got.tolist() == want.tolist(), (ell, a, b)
        # Far windows, whose indices start past the index cap: the range
        # starts at the smaller end's wavenumber and still misses no pole.
        _, offset, _ = model._poles[triplet]
        for n in (10 ** 7, 3 * 10 ** 8):
            near = [model._pole((m + offset) * math.pi / ell) for m in range(n - 3, n + 4)]
            for side in (max, min) if len(near[0]) == 2 else (max,):
                far = np.array(sorted(side(pair) for pair in near))
                for i, j in [(0, 6), (1, 4), (2, 2), (3, 5)]:
                    a, b = far[i], far[j]
                    for window in [(a, b), (np.nextafter(a, math.inf), b),
                                   (np.nextafter(a, -math.inf), np.nextafter(b, -math.inf))]:
                        got = em.decoupled_eigenvalues(model, ell, window=window,
                                                       triplet=triplet)
                        want = far[(window[0] <= far) & (far <= window[1])]
                        assert got.tolist() == want.tolist(), (ell, n, window)


@pytest.mark.parametrize("count", [-2, -1, 1.5, "3"])
def test_decoupled_count_must_be_a_nonnegative_integer(count):
    with pytest.raises(em.EdgeModelError, match="count must be an integer"):
        em.decoupled_eigenvalues(em.Dirac(1.0), 1.0, count=count)


@pytest.mark.parametrize("window, count", [((0.0, 10.0), 3), (None, None)],
                         ids=["both", "neither"])
def test_decoupled_needs_exactly_one_of_window_or_count(window, count):
    with pytest.raises(em.EdgeModelError, match="^specify exactly one of window or count$"):
        em.decoupled_eigenvalues(LAP, 1.0, window=window, count=count)


def test_decoupled_count_zero_keeps_the_extra_pole():
    assert em.decoupled_eigenvalues(em.Dirac(1.0), 1.0, count=0).tolist() == [-0.5]
    assert em.decoupled_eigenvalues(LAP, 1.0, count=np.int64(1)).size == 1


def test_a_short_edge_has_its_poles_past_the_float_range_at_inf():
    # (pi / 1e-160)^2 overflows: each pole is one multiply, inf, and lies in
    # no window; the response M ~ 1/l stays finite.
    assert em.decoupled_eigenvalues(LAP, 1e-160, count=2).tolist() == [math.inf] * 2
    assert em.decoupled_eigenvalues(em.Dirac(1.0), 1e-160, count=2).tolist() == [
        -math.inf, -math.inf, -0.5, math.inf, math.inf]
    assert em.decoupled_eigenvalues(LAP, 1e-160, window=(-5.0, 30.0)).size == 0
    for lam in (0.5, [0.5, -2.0]):
        m = em.weyl(LAP, 1e-160, lam)
        assert m == pytest.approx(np.broadcast_to([[-1e160, 1e160], [1e160, -1e160]], m.shape),
                                  rel=1e-12)
    assert em.pole_distance(LAP, 1e-160, 0.5) == (math.inf, math.inf)


@pytest.mark.parametrize("model,lam", [
    (LAP, math.inf), (LAP, -math.inf), (LAP, math.nan), (LAP, complex(1.0, math.inf)),
    (LAP, complex(1.0, math.nan)), (em.Dirac(1.0), math.inf), (em.Dirac(1.0), 1e300),
    (em.Dirac(1.0), -1e300), (LAP, 1e308 * 1.5),
])
def test_edge_guard_rejects_non_finite_or_overflowing_lambda(model, lam):
    calls = [
        lambda: em.weyl(model, 1.5, lam),
        lambda: em.weyl_derivative(model, 1.5, lam),
        lambda: em.pole_distance(model, 1.5, lam),
        lambda: em.defect_element(model, 1.5, lam, [1.0, 0.0]),
    ]
    if not isinstance(lam, complex):
        calls.append(lambda: build_regularization(star(3, lengths=1.5, model=model), lam))
    for call in calls:
        with pytest.raises(em.EdgeModelError, match="not finite or overflows"):
            call()


def test_half_line_guard_rejects_non_finite_lambda():
    for lam in (math.nan, complex(-1.0, math.inf)):
        with pytest.raises(em.EdgeModelError, match="not finite or overflows"):
            em.weyl(HALF, math.inf, lam)


def test_huge_dirac_window_overflows_the_pole_index_bound(monkeypatch):
    # The Dirac wavenumber squares the window end, which overflows to inf.
    with pytest.raises(em.EdgeModelError, match="overflows the pole index"):
        em.decoupled_eigenvalues(em.Dirac(1.0), 1.0, window=(0.0, 1e300))
    # The Laplacian index range is finite (about 3e149 and 3e9 indices) but
    # over the cap of 10**6 per edge, in window and in count mode alike.
    for window in [(0.0, 1e300), (0.0, 1e20), (-1e20, 1e20)]:
        with pytest.raises(em.EdgeModelError, match="overflows the pole index cap"):
            em.decoupled_eigenvalues(LAP, 1.0, window=window)
    with pytest.raises(em.EdgeModelError, match="overflows the pole index cap"):
        em.decoupled_eigenvalues(LAP, 1.0, count=10 ** 6 + 1)
    # A far window lists only the indices between its ends, not the 318,309
    # poles below (1e12, 1e12 + 1).
    calls = []
    pole = em.Laplacian._pole
    monkeypatch.setattr(em.Laplacian, "_pole", staticmethod(lambda k: calls.append(k) or pole(k)))
    assert em.decoupled_eigenvalues(LAP, 1.0, window=(1e12, 1e12 + 1)).size == 0
    assert len(calls) <= 3


@pytest.mark.parametrize("model,ell,gamma0", [(LAP, 1.0, [1.0, 0.0]), (HALF, math.inf, [1.0])])
@pytest.mark.parametrize("triplet,message", [
    ("hat", "the 'hat' trace maps exist only for the Dirac model"),
    ("bogus", "unknown triplet 'bogus'"),
])
def test_triplets_the_model_lacks_are_rejected(model, ell, gamma0, triplet, message):
    calls = [
        lambda: em.weyl(model, ell, -1.0, triplet),
        lambda: em.weyl_derivative(model, ell, -1.0, triplet),
        lambda: em.pole_distance(model, ell, -1.0, triplet),
        lambda: em.decoupled_eigenvalues(model, ell, count=3, triplet=triplet),
        lambda: em.defect_element(model, ell, -1.0, gamma0, triplet),
    ]
    for call in calls:
        with pytest.raises(em.EdgeModelError, match=message):
            call()


def test_no_code_tests_the_class_of_an_edge_model():
    # Each model answers for itself through its class data; a type test on
    # a model class would be a second place that knows about the model.
    import ast
    import pathlib

    classes = {"Laplacian", "Dirac", "HalfLineLaplacian"}
    sites = []
    for path in sorted(pathlib.Path(em.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                continue
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.args[1])
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if names & classes:
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def test_only_the_graph_decides_the_model_of_an_edge():
    # graphs.py chooses each edge's model (edge_model_for) and groups the
    # edges by it once per graph (the index's by_model); the CLI's weyl
    # command asks it for one edge.  edges.py defines the half-line model.
    import ast

    sites = []
    for path in sorted(pathlib.Path(em.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "_half_line"
                    and path.name not in ("edges.py", "graphs.py")):
                sites.append(f"{path.name}:{node.lineno} reads _half_line")
            if (isinstance(node, ast.Call) and path.name not in ("graphs.py", "cli.py")
                    and "edge_model_for" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))):
                sites.append(f"{path.name}:{node.lineno} calls edge_model_for")
    assert sites == []


_TABLE = pathlib.Path(__file__).parent / "data" / "edge_reference.csv"
_DIRAC_PHASE = np.array([[1, -1j], [1j, 1]])
_TABLE_MODELS = {"laplacian": (LAP, 1.0), "dirac-1": (em.Dirac(1.0), _DIRAC_PHASE),
                 "dirac-137": (em.Dirac(137.0), _DIRAC_PHASE), "half-line": (HALF, None)}
_EPS = np.finfo(float).eps
# (M, M') bounds per regime of w, in units of eps * cond: four times the
# scalar path's worst error on the table (x86-64, glibc, numpy 2.4), at
# least 1, for libms and numpy builds a few ulps less exact.  That worst
# was 0.97 and 1.92 in the series, 1.01 and 1.98 at w > 0, 0.92 and 1.08
# at w < 0, 0 and 0.65 on the half-line; the array kernel's within 0.01.
_BOUNDS = {"series": (4, 8), "w > 0": (4, 8), "w < 0": (4, 5), "half-line": (1, 3)}


def kernel_bounds(model, ell, lam, m, dm):
    """(bound on M, bound on M'), in the max-entry norm, that each edge
    kernel meets against the exact values at a real (ell, lam) off the
    poles, given M and M' there: the regime's bounds times eps, the norm and
    the condition 1 + |lam| ||M'|| / ||M|| of the rounded inputs; the bound
    on M' also times 1 + 1/|w| outside the series, where (r^2 - q)/2w and
    -r(q - 1)/2w lose -log10 |w| digits to cancellation."""
    size, dsize = np.abs(m).max(), np.abs(dm).max()
    scale = _EPS * (1 + abs(lam) * dsize / size)
    if model.dim == 1:
        regime, loss = "half-line", 1.0
    else:
        w = ell * ell * model._reduce(lam)[0]
        regime = "series" if abs(w) < 1e-3 else "w > 0" if w > 0 else "w < 0"
        loss = 1.0 if regime == "series" else 1 + 1 / abs(w)
    bound_m, bound_dm = _BOUNDS[regime]
    return bound_m * scale * size, bound_dm * scale * loss * dsize


def _reference(name):
    """[(ell, lam, M, M')] of the table's rows for the model ``name``; M and
    M' are NaN at an exact pole."""
    _, phase = _TABLE_MODELS[name]
    out = []
    with _TABLE.open(encoding="ascii") as f:
        for row in csv.DictReader(f):
            if row["model"] == name:
                a, b, da, db = (float(row[k]) for k in ("a", "b", "da", "db"))
                if phase is None:
                    m, dm = np.array([[a + 1j * b]]), np.array([[da + 1j * db]])
                else:
                    m, dm = (phase * np.array([[x, y], [y, x]]) for x, y in ((a, b), (da, db)))
                out.append((float(row["ell"]), float(row["lam"]), m, dm))
    return out


@pytest.mark.parametrize("name", list(_TABLE_MODELS))
def test_both_edge_kernels_meet_the_reference_table_bound(name):
    # The 40-digit table holds every regime of w (series, w > 0 away from
    # and next to the poles, w < 0) on each length.  The array kernel runs
    # over all lengths at each lambda, so its regimes mix within one call;
    # its pole decisions, distances and nearest poles are the scalar
    # guard's exactly.
    model, _ = _TABLE_MODELS[name]
    rows = _reference(name)
    lengths = np.array(sorted({ell for ell, _, _, _ in rows}))
    hits = 0
    for ell, lam, m_ref, dm_ref in rows:
        i = int(np.searchsorted(lengths, ell))
        dist, pole, on_pole, m, dm = em._responses(model, lengths, lam)
        assert m.shape == dm.shape == (len(lengths), model.dim, model.dim)
        try:
            d, p, *scalar = em._response(model, ell, lam, derivative=True)
        except em.PoleOfWeylError as err:
            hits += 1
            assert on_pole[i] and pole[i] == err.nearest_pole, (ell, lam)
            continue
        assert not on_pole[i] and (dist[i], pole[i]) == (d, p), (ell, lam)
        bound_m, bound_dm = kernel_bounds(model, ell, lam, m_ref, dm_ref)
        for got_m, got_dm in ((m[i], dm[i]), scalar):
            assert np.abs(got_m - m_ref).max() <= bound_m, (ell, lam)
            assert np.abs(got_dm - dm_ref).max() <= bound_dm, (ell, lam)
    assert hits > 0


def test_reference_table_matches_its_generator():
    # Regenerates every 37th row at 40 digits; CI installs no mpmath.
    pytest.importorskip("mpmath")
    spec = importlib.util.spec_from_file_location("edge_reference", _TABLE.with_suffix(".py"))
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    lines = _TABLE.read_text(encoding="ascii").splitlines()
    assert lines[0] == ",".join(generator.COLUMNS)
    assert len(lines) == 1 + len(generator.points())
    for line in lines[1::37]:
        name, ell, lam = line.split(",")[:3]
        assert ",".join(generator.row(name, float(ell), float(lam))) == line


@pytest.mark.parametrize("model,ell,lam", [
    (LAP, 1.5, math.nan), (LAP, 1.5, math.inf), (LAP, 1.5, -math.inf), (LAP, 50.0, 1e308),
    (em.Dirac(1.0), 1.5, 1e300), (em.Dirac(1.0), 1.5, -math.inf), (HALF, math.inf, math.nan),
    (LAP, -1.0, 2.0), (LAP, math.inf, 2.0), (HALF, 3.0, -1.0),
])
def test_array_kernel_raises_the_errors_of_the_scalar_guard(model, ell, lam):
    # The first invalid length, or an invalid lambda, raises the scalar message.
    with pytest.raises(em.EdgeModelError) as want:
        em.weyl(model, ell, lam)
    assert type(want.value) is em.EdgeModelError
    good = math.inf if model.dim == 1 else 1.0
    # A lambda array raises at the first lambda that has an error.
    for ells, lams in (([ell], lam), ([good, ell, math.nan], lam), ([ell], np.array([-1.0, lam]))):
        with pytest.raises(em.EdgeModelError) as got:
            em._responses(model, np.array(ells), lams)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("model,ells", [
    (LAP, [0.02, 0.3, 1.0, 1.7, 11.0]), (em.Dirac(1.0), [0.05, 0.7, 1.3, 4.0]),
    (em.Dirac(137.0), [0.001, 0.05, 2.0]), (HALF, [math.inf, math.inf]),
])
def test_a_lambda_array_gives_each_column_the_bytes_of_its_lambda(model, ells):
    # One call over lambda values that mix k^2 < 0, the series, k^2 > 0,
    # poles and Dirac's rho pole -c^2/2 equals the one-lambda calls column
    # by column, byte for byte, M' included, with M and with M(lam) - M(since).
    ell = np.array(ells)
    lams = np.array([-1e6, -37.0, -0.5, -1e-5, 0.0, 1e-7, 0.3, 2.0, math.pi ** 2, 40.37, 9000.0])
    since = -1.0 if model._lambda0 is None else model._lambda0
    for kw in ({}, {"since": since}):
        batch = em._responses(model, ell, lams, **kw)
        assert batch[0].shape == (len(ell), len(lams))
        for k, lam in enumerate(lams.tolist()):
            for got, want in zip(batch, em._responses(model, ell, lam, **kw)):
                got = np.ascontiguousarray(got[:, k])
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes()), (kw, lam)


def test_array_kernel_reports_the_scalar_nearest_pole_on_poles():
    for model, ell, lam in [(LAP, 1.0, math.pi ** 2), (LAP, 0.7, (2 * math.pi / 0.7) ** 2),
                            (em.Dirac(1.0), 1.0, -0.5), (HALF, math.inf, 0.0),
                            (HALF, math.inf, 4.0)]:
        with pytest.raises(em.PoleOfWeylError) as err:
            em.weyl(model, ell, lam)
        dist, pole, on_pole, _, _ = em._responses(model, np.array([ell]), lam)
        assert on_pole[0] and (dist[0], pole[0]) == em.pole_distance(model, ell, lam)
        assert pole[0] == err.value.nearest_pole


def _outcome(f, *args):
    """The bytes and types of f(*args), or its error's type, message and data."""
    try:
        out = f(*args)
    except em.EdgeModelError as err:
        return type(err), str(err), getattr(err, "lam", None), getattr(err, "nearest_pole", None)
    if isinstance(out, tuple):
        return tuple((type(x), np.float64(x).tobytes()) for x in out)
    return out.dtype, out.shape, out.tobytes()


@pytest.mark.parametrize("model,ell,triplet", [
    (LAP, 1.3, "graph"), (LAP, 0.02, "graph"), (em.Dirac(1.0), 0.7, "graph"),
    (em.Dirac(1.0), 0.7, "hat"), (em.Dirac(137.0), 0.05, "graph"), (HALF, math.inf, "graph"),
])
def test_real_lambda_gives_the_same_bytes_as_float_numpy_float_or_int(model, ell, triplet):
    # Every scalar entry point evaluates a real lambda as a Python float, so
    # the type it comes in changes no bit of M, M', the nearest pole or an
    # error, signed zeros and the sign of the zeros of M' included.
    ints = [-10 ** 6, -2000, -37, -3, -1, 0, 1, 2, 5, 9, 10, 40, 137, 9000, 10 ** 5]
    values = ints + [x + 0.37 for x in ints] + [-0.0, 1e-7, -1e-7, math.pi ** 2, 0.5]
    for lam in values:
        forms = [float(lam), np.float64(lam)] + ([int(lam)] if isinstance(lam, int) else [])
        for f in (em.weyl, em.weyl_derivative, em.pole_distance):
            want = _outcome(f, model, ell, forms[0], triplet)
            for form in forms[1:]:
                assert _outcome(f, model, ell, form, triplet) == want, (f.__name__, lam, form)


@pytest.mark.parametrize("model,triplet", [
    (LAP, "graph"), (em.Dirac(1.0), "graph"), (em.Dirac(1.0), "hat"), (em.Dirac(137.0), "graph"),
])
def test_a_numpy_float_length_gives_the_bytes_of_a_float_length(model, triplet):
    # The scalar path reads a length as a Python float, so an np.float64
    # length changes no bit of M or M' at real or complex lambda.
    for ell in (0.02, 0.7, 1.3, 11.0):
        for lam in (-37.0, -0.5, 0.3, 2.0, 40.37, 9000.0, 2.0 + 0.5j, -3.0 - 1j, 40.0 + 1e-3j):
            for f in (em.weyl, em.weyl_derivative):
                want = _outcome(f, model, ell, lam, triplet)
                assert _outcome(f, model, np.float64(ell), lam, triplet) == want, (ell, lam)


@pytest.mark.parametrize("model,ell,triplet", [
    (LAP, 1.3, "graph"), (LAP, 0.02, "graph"), (em.Dirac(1.0), 0.7, "graph"),
    (em.Dirac(1.0), 0.7, "hat"), (em.Dirac(137.0), 0.05, "graph"), (HALF, math.inf, "graph"),
])
def test_a_lambda_list_gives_the_bytes_of_the_scalar_calls_stacked(model, ell, triplet):
    # One list call over lambda values in every regime of w (k^2 < 0, the
    # series, k^2 > 0, Dirac's gap and lower branch), real and complex mixed,
    # np.float64 and int entries among them, equals the scalar calls stacked,
    # byte for byte; so does a list of one lambda.
    values = [-1e6, -37.0, -3, -0.5, -1e-5, 0.0, -0.0, 1e-7, 0.3, 2, 40.37, 9000.0,
              np.float64(5.5), 2.0 + 0.5j, -3.0 - 1j, 40.0 + 1e-3j, 0.3 + 0j, -2.0 + 0j]
    lams = [lam for lam in values
            if _outcome(em.weyl, model, ell, lam, triplet)[0] is np.dtype(complex)]
    assert len(lams) >= 9  # the half-line keeps k^2 < 0 and the complex values
    stacked = np.array([em.weyl(model, ell, lam, triplet) for lam in lams])
    assert _outcome(em.weyl, model, ell, lams, triplet) == _outcome(lambda *a: stacked)
    for lam, want in zip(lams, stacked):
        assert _outcome(em.weyl, model, ell, [lam], triplet) == _outcome(lambda *a: want[None])


@pytest.mark.parametrize("model,ell,good,bad", [
    (LAP, 1.0, [0.3, -2.0], [math.pi ** 2, (2 * math.pi) ** 2]),
    (LAP, 1.5, [0.3], [math.nan, math.inf]),
    (LAP, 50.0, [-1.0], [1e308]),
    (em.Dirac(1.0), 1.0, [0.2, 3.0 + 1j], [-0.5, math.pi]),
    (HALF, math.inf, [-0.3, 2.0 + 1j], [4.0, 0.0]),
])
def test_a_lambda_list_raises_the_scalar_error_of_its_first_bad_lambda(model, ell, good, bad):
    want = _outcome(em.weyl, model, ell, bad[0])
    assert want[0] in (em.EdgeModelError, em.PoleOfWeylError)
    for lams in (good + bad, bad + good, good[:1] + bad[:1] + good[1:] + bad[1:]):
        assert _outcome(em.weyl, model, ell, lams) == want


@pytest.mark.parametrize("name", list(_TABLE_MODELS))
def test_graph_maps_are_blocks_whose_norm_is_the_first_row_sum(name):
    # At the table's real points off the poles, M and M' are the blocks
    # [[a, t x], [conj(t) x, a]] of the model's phase t with x real, so the
    # first row's |a| + |t x| (|a| alone on the half-line) is the norm of
    # M' that eigvalsh gives, bit for bit.
    model, _ = _TABLE_MODELS[name]
    t = em._phase(model) if model.dim == 2 else None
    checked = 0
    for ell, lam, _, _ in _reference(name):
        try:
            m, dm = em.weyl(model, ell, lam), em.weyl_derivative(model, ell, lam)
            norm = em._special_values(model, ell, lam)[2]
        except em.PoleOfWeylError:
            continue
        assert norm == np.max(np.abs(np.linalg.eigvalsh(dm))), (ell, lam)
        checked += 1
        for got in (m, dm) if model.dim == 2 else ():
            x = (got[0, 1] * t.conjugate()).real
            assert got[0, 0] == got[1, 1] and got[0, 0].imag == 0, (ell, lam)
            assert got[0, 1] == t * x and got[1, 0] == t.conjugate() * x, (ell, lam)
    assert checked >= 30
