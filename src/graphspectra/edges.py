"""Closed-form boundary data for the operators living on single edges.

Three edge operators are supported: the free Laplacian -d^2/dx^2 on a
finite interval, the free Dirac operator with mass term c^2/2 on a finite
interval, and the Laplacian on a half-line.  For each one this module
evaluates the boundary response matrix M(lambda) (the matrix that maps
prescribed trace data to the complementary trace data of the solution of
the edge eigenvalue equation), its derivative, the defect solutions
themselves, and the spectrum of the decoupled (trace-zero) edge operator.

Both interval models reduce to one kernel, the Laplacian response
M_L(l; k^2) of -psi'' = k^2 psi on [0, l].  The first component of a
Dirac spinor solves that equation at the wavenumber

    k^2(lambda) = (lambda^2 - c^4/4) / c^2,

and the Dirac graph trace maps are the Laplacian ones rescaled by
rho(lambda) = c^2 / (lambda + c^2/2) and rephased by D = diag(1, -i):

    M(lambda)  = rho D^H M_L(l; k^2) D,
    M'(lambda) = rho' D^H M_L D + rho (k^2)' D^H (dM_L/dk^2) D.

The Laplacian is the identity reduction k^2 = lambda, rho = 1, D = I.
The poles of M are the k^2-preimages of the Dirichlet values (n pi/l)^2,
n >= 1, plus, for Dirac, the pole of rho at -c^2/2.  Each model class
states its conventions once, and the whole package reads them from there
instead of testing the class: the boundary dimension ``dim`` (2, or 1 on
a half-line), the mapping ``_poles`` from each trace map it admits to that
map's pole family (first index, index offset and extra poles: the poles
sit where the wavenumber is (n + offset) pi / l, n >= first; None on the
half-line, whose decoupled spectrum is the ray), the model ``_half_line``
of a half-line edge on its graphs (or None), the default point
``_lambda0`` (None on the half-line) and, on the interval models (the only
graph models), ``_reduce`` (k^2, rho and their derivatives), ``_pole``
(the preimages of a wavenumber), ``_wavenumber`` (where to look for the
nearest poles), the phases ``_phases`` of psi1 in the trace at t = 0 and
1 (1 and i for Dirac: the delta-coupling vector), the scale ``_flux`` of
the flux trace (c for Dirac), the raw first-order system ``_system`` and
``bounded_below``.

Every interval evaluation is written with ratios of the entire functions

    S(w) = sin(sqrt(w)) / sqrt(w),    C(w) = cos(sqrt(w)),

at w = l^2 k^2.  This removes every branch-cut and removable-singularity
issue: the same expression is valid above threshold, inside spectral
gaps and at complex spectral parameters.  One helper, ``_trig``, returns
C and S times a common scale e with |e| <= 1, and log e: series near
w = 0, exp(-sqrt(-w)) for real w < 0 and exp(i sqrt(w)) for
Im sqrt(w) > 20, where sin and cos overflow.  The kernel (q = C/S and
1/S = e/(S e)), the Dirac "hat" trace maps (S/C and 1/C, poles at
cos(l k) = 0) and the defect solutions (ratios at two points, which
bring in e(l)/e(x), of modulus at most 1) are all ratios of its output,
so none of them overflows.  The half-line (boundary dimension d = 1)
has the Herglotz branch of i sqrt(lambda) as its response.

``_responses`` is the graph-map evaluation of one model over arrays of
lengths and real lambda, equal bit for bit to the scalar one: regimes as
masks, and ``_kernel``'s complex operations on real parts.
``build_regularization`` and ``check_mtilde_divergence`` call it once per
edge model.  ``krein_matrix`` keeps one scalar call per edge: the
benchmark's tracer pins three ``weyl`` calls per secular evaluation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Laplacian",
    "Dirac",
    "HalfLineLaplacian",
    "EdgeModel",
    "EdgeModelError",
    "PoleOfWeylError",
    "DefectElement",
    "DIRAC_GRAPH_FROM_HAT",
    "weyl",
    "weyl_derivative",
    "weyl_norm_prime",
    "transform_triplet",
    "defect_element",
    "green_identity_residual",
    "decoupled_eigenvalues",
    "pole_distance",
]

_POLE_TOL = 1e-9
# Most wavenumber indices one edge may list in decoupled_eigenvalues, and
# all edges of a graph together in a spectral window.
_MAX_POLE_INDICES = 10 ** 6


class EdgeModelError(ValueError):
    """Invalid edge-model parameters or inadmissible spectral point."""


class PoleOfWeylError(EdgeModelError):
    """The spectral parameter sits (numerically) on a decoupled eigenvalue."""

    def __init__(self, lam, nearest_pole):
        self.lam = lam
        self.nearest_pole = nearest_pole
        super().__init__(
            f"lambda={lam} too close to decoupled eigenvalue {nearest_pole}"
        )


@dataclass(frozen=True)
class HalfLineLaplacian:
    """Free Laplacian on a half-line edge (one boundary point, d = 1)."""

    kind = "half_line_laplacian"
    _lambda0 = None
    dim = 1
    _poles = {"graph": None}
    _half_line = None


@dataclass(frozen=True)
class Laplacian:
    """Free Laplacian -d^2/dx^2 on finite interval edges."""

    kind = "laplacian"
    dim = 2
    _poles = {"graph": (1, 0, ())}
    _half_line = HalfLineLaplacian()
    _lambda0 = 0.0
    _phases = (1 + 0j, 1 + 0j)
    _flux = 1.0
    bounded_below = True

    @staticmethod
    def _reduce(lam):
        """(k^2, dk^2/dlambda, rho, drho/dlambda); rho None: no rescaling."""
        return lam, 1.0, None, None

    @staticmethod
    def _pole(k):
        """Spectral points at which the wavenumber is the real number k."""
        return (k ** 2,)

    @staticmethod
    def _wavenumber(x):
        """Wavenumber at the real point x, 0 where it is imaginary; the poles
        nearest to any lam with Re lam = x lie next to it."""
        return math.sqrt(x) if x > 0 else 0.0

    @staticmethod
    def _system(lam):
        """(A[0, 1], A[1, 0]) of u' = A u, u = (psi, psi'); (psi1, i psi2) for Dirac."""
        return 1.0, -lam


@dataclass(frozen=True)
class Dirac:
    """Free Dirac operator on finite interval edges; ``c`` is the speed of light."""

    c: float
    kind = "dirac"
    dim = 2
    _half_line = None
    _phases = (1.0, 1j)
    bounded_below = False

    def __post_init__(self):
        if not self.c > 0:
            raise EdgeModelError(f"Dirac speed of light must be positive, got {self.c}")
        # Not a field: repr, == and hash see c only.  The graph maps have
        # their poles at sin(l k) = 0 and at rho's pole -c^2/2, the hat maps
        # at cos(l k) = 0.
        object.__setattr__(self, "_poles", {"graph": (1, 0, (-self.c * self.c / 2,)),
                                            "hat": (0, 0.5, ())})

    @property
    def _lambda0(self):
        return self.c ** 2 / 2

    @property
    def _flux(self):
        return self.c

    def _reduce(self, lam):
        c2 = self.c * self.c
        shift = lam + c2 / 2
        rho = c2 / shift
        return (lam * lam - (c2 / 2) ** 2) / c2, 2 * lam / c2, rho, -rho / shift

    def _pole(self, k):
        root = math.sqrt((self.c * k) ** 2 + self.c ** 4 / 4)
        return root, -root

    def _wavenumber(self, x):
        c = self.c
        v = x * x - (c * c / 2) ** 2
        return math.sqrt(v) / c if v > 0 else 0.0

    def _system(self, lam):
        c = self.c
        return (lam + c * c / 2) / c, -(lam - c * c / 2) / c


EdgeModel = Union[Laplacian, Dirac, HalfLineLaplacian]

#: Unitary turning the Dirac "hat" trace maps into the graph trace maps
#: (first-component values / scaled second-component values), written as a
#: 2x2 block matrix of 2x2 blocks acting on (Gamma0_hat, Gamma1_hat).
#: Hat maps: Gamma0_hat = (psi1(0), ic psi2(l)), Gamma1_hat = (ic psi2(0),
#: psi1(l)); graph maps: Gamma0 = (psi1(0), i psi1(l)), Gamma1 = (ic psi2(0),
#: c psi2(l)).  It preserves the boundary form, W^H J W = J with
#: J = [[0, -iI], [iI, 0]], and takes the hat gap value [[0, 1], [1, l]] at
#: lambda0 = c^2/2 to the graph gap value (1/l)[[-1, -i], [i, -1]].
DIRAC_GRAPH_FROM_HAT = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 0, 1j],
        [0, 0, 1, 0],
        [0, -1j, 0, 0],
    ],
    dtype=complex,
)

# Entrywise form of D^H X D for D = diag(1, -i).
_DIRAC_PHASE = np.array([[1, -1j], [1j, 1]])

_SERIES_CUTOFF = 1e-3

# Taylor coefficients around w = 0 (w = z^2):
#   S(w) = sin(z)/z, C(w) = cos(z),
#   D1(w) = -d/dw (C/S), E1(w) = d/dw (1/S).
_S_COEF = [1.0, -1 / 6, 1 / 120, -1 / 5040, 1 / 362880, -1 / 39916800]
_C_COEF = [1.0, -1 / 2, 1 / 24, -1 / 720, 1 / 40320, -1 / 3628800]
_D1_COEF = [1 / 3, 2 / 45, 2 / 315, 4 / 4725, 10 / 93555]
_E1_COEF = [1 / 6, 7 / 180, 31 / 5040, 127 / 151200]


def _poly(coef, w):
    acc = 0.0
    for a in reversed(coef):
        acc = acc * w + a
    return acc


def _trig(w):
    """(C(w) e, S(w) e, log e) for a scale e that keeps both finite.

    With z = sqrt(w) on the branch Im z >= 0 (S and C are even in z), the
    scale is e = 1 for real w > 0 and for Im z <= 20, exp(-sqrt(-w)) for
    real w < 0 and exp(iz) for Im z > 20, so |e| <= 1 and C e, S e never
    overflow.  Callers form ratios of the three outputs.  Real w gives real
    floats.
    """
    if w.imag == 0.0:
        w = float(w.real)
    if abs(w) < _SERIES_CUTOFF:
        return _poly(_C_COEF, w), _poly(_S_COEF, w), 0.0
    if isinstance(w, float):
        if w > 0:
            z = math.sqrt(w)
            return math.cos(z), math.sin(z) / z, 0.0
        y = math.sqrt(-w)
        v = math.expm1(-2.0 * y)  # exp(-2y) - 1
        return 1.0 + v / 2, -v / (2 * y), -y
    z = cmath.sqrt(w)
    if z.imag < 0:
        z = -z
    if z.imag <= 20.0:
        # Not the exponential form: near the poles it loses digits.
        return cmath.cos(z), cmath.sin(z) / z, 0.0
    u = cmath.exp(2j * z)
    return (1 + u) / 2, (u - 1) / (2j * z), 1j * z


def _check_triplet(model: EdgeModel, triplet: str):
    if triplet not in ("graph", "hat"):
        raise EdgeModelError(f"unknown triplet {triplet!r}")
    if triplet not in model._poles:
        raise EdgeModelError("the 'hat' trace maps exist only for the Dirac model")


def _check_length(model: EdgeModel, ell: float):
    if model.dim == 1:
        if not math.isinf(ell):
            raise EdgeModelError("half-line model requires length = inf")
        return
    if not (ell > 0 and math.isfinite(ell)):
        raise EdgeModelError(f"interval edge needs finite positive length, got {ell}")


def _guard(model, ell, lam, triplet="graph", tol=_POLE_TOL):
    """(distance, pole) from lam to the decoupled spectrum, the one pole
    computation of an edge evaluation: raises EdgeModelError for a lam that
    is not finite or whose l^2 |k^2| overflows, and PoleOfWeylError within
    ``tol * max(1, |pole|)`` of the nearest decoupled eigenvalue."""
    _check_triplet(model, triplet)
    _check_length(model, ell)
    lam = complex(lam)
    half_line = model.dim == 1
    lk = 0.0 if half_line else ell * model._wavenumber(abs(lam))
    if not (cmath.isfinite(lam) and math.isfinite(lk * lk)):
        raise EdgeModelError(f"lambda={lam} is not finite or overflows the edge evaluation")
    if half_line:
        dist, pole = (abs(lam), 0.0) if lam.real <= 0 else (abs(lam.imag), lam.real)
    else:
        # All poles are real, so the nearest one brackets Re lam: its index
        # is n0 or n0 + 1, with (n0 + offset) pi / l the last pole wavenumber
        # at or below that of Re lam.
        first, offset, candidates = model._poles[triplet]
        candidates = list(candidates)
        n0 = math.floor(ell * model._wavenumber(lam.real) / math.pi - offset)
        for n in range(max(first, n0), n0 + 2):
            candidates.extend(model._pole((n + offset) * math.pi / ell))
        dist = pole = None
        for p in candidates:  # the first of equally near poles wins
            d = abs(lam - p)
            if dist is None or d < dist:
                dist, pole = d, p
    if dist < tol * max(1.0, abs(pole)):
        raise PoleOfWeylError(lam, pole)
    return dist, pole


def pole_distance(model: EdgeModel, ell: float, lam, triplet: str = "graph"):
    """Distance from ``lam`` to the decoupled edge spectrum and the nearest point.

    For interval models the decoupled spectrum is the closed-form pole set of
    the boundary response matrix; for the half-line it is the ray [0, inf).
    """
    return _guard(model, ell, lam, triplet, tol=0.0)


def _halfline_root(lam):
    # sqrt(lambda) on the branch Im >= 0, so that i*sqrt(lambda) is the
    # Herglotz function continuing -sqrt(-lambda) from the negative
    # half-axis, with m(conj(lam)) = conj(m(lam)).
    z = np.sqrt(complex(lam))
    return -z if z.imag < 0 else z


def _kernel(ell, k2, derivative):
    """Laplacian response M_L(l; k^2) and, when asked, dM_L/d(k^2).

    In q = C/S = z cot z and r = 1/S = z csc z, M_L = [[-q, r], [r, -q]]/l,
    and r^2 = q^2 + w turns the derivative into (r^2 - q)/(2w) and
    -r(q - 1)/(2w) times l.
    """
    w = ell * ell * k2
    c, s, log_e = _trig(w)
    q, r = c / s, cmath.exp(log_e) / s
    m11, m12 = -q / ell, r / ell
    dm = None
    if derivative:
        if abs(w) < _SERIES_CUTOFF:
            d11, d12 = ell * _poly(_D1_COEF, w), ell * _poly(_E1_COEF, w)
        else:
            d11, d12 = ell * (r * r - q) / (2 * w), -ell * r * (q - 1) / (2 * w)
        dm = np.array([[d11, d12], [d12, d11]], dtype=complex)
    return np.array([[m11, m12], [m12, m11]], dtype=complex), dm


def _weyl_hat(c, ell, lam, derivative):
    """Dirac response and derivative under the hat trace maps.

    Written in t = S/C = tan(z)/z and sec = 1/C, z = sqrt(w), with
    dt/dw = (sec^2 - t)/(2w) by 1 + w t^2 = sec^2, or t^2 D1(w) near w = 0.
    """
    half_gap = c * c / 2
    w = ell * ell * (lam * lam - half_gap ** 2) / (c * c)
    cw, s, log_e = _trig(w)
    t, sec = s / cw, cmath.exp(log_e) / cw
    m11 = (lam - half_gap) * ell * t
    m22 = (lam + half_gap) * ell * t / (c * c)
    m = np.array([[m11, sec], [sec, m22]], dtype=complex)
    if not derivative:
        return m, None
    wp = 2 * ell * ell * lam / (c * c)
    if abs(w) < _SERIES_CUTOFF:
        dt = t * t * _poly(_D1_COEF, w) * wp
    else:
        dt = (sec * sec - t) / (2 * w) * wp
    d11 = ell * (t + (lam - half_gap) * dt)
    d12 = sec * t * wp / 2
    d22 = (ell / (c * c)) * (t + (lam + half_gap) * dt)
    return m, np.array([[d11, d12], [d12, d22]], dtype=complex)


def _response(model, ell, lam, triplet="graph", tol=_POLE_TOL, derivative=False):
    """(distance, pole, M(lam), M'(lam) or None) of one edge, guarded by
    ``_guard``."""
    dist, pole = _guard(model, ell, lam, triplet, tol)
    if model.dim == 1:
        z = _halfline_root(lam)
        return (dist, pole, np.array([[1j * z]], dtype=complex),
                np.array([[1j / (2 * z)]], dtype=complex))
    if triplet == "hat":
        return (dist, pole) + _weyl_hat(model.c, ell, lam, derivative)
    k2, dk2, rho, drho = model._reduce(lam)
    m, dm = _kernel(ell, k2, derivative)
    if rho is not None:
        if derivative:
            dm = _DIRAC_PHASE * (drho * m + (rho * dk2) * dm)
        m = rho * _DIRAC_PHASE * m
    return dist, pole, m, dm


def _each(f, x):
    """The scalar function f at each element of the array x, called once per
    distinct value (np.unique merges -0.0 and 0.0, which no caller's f tells
    apart at the points it gets); a tuple result adds a last axis."""
    values, inverse = np.unique(x.ravel(), return_inverse=True)
    out = np.array([f(v) for v in values.tolist()], dtype=float)
    return out[inverse.ravel()].reshape(x.shape + out.shape[1:])


def _responses(model, ell, lam, derivative=False):
    """``_response`` over arrays: (dist, pole, on_pole, M, M' or None) of the
    graph trace maps on the broadcast shape of ``ell`` and real ``lam``, bit
    for bit where on_pole is False (M is undefined where it is True).  The
    first invalid length or lam, in C order, raises the error of ``_guard``."""
    ell, lam = np.asarray(ell, dtype=float), np.asarray(lam, dtype=float)
    half_line = model.dim == 1
    with np.errstate(all="ignore"):
        lk = 0.0 if half_line else ell * _each(model._wavenumber, np.abs(lam))
        ell, lam, lk = np.broadcast_arrays(ell, lam, lk)
        bad = ~(np.isfinite(lam) & np.isfinite(lk * lk)
                & (np.isinf(ell) if half_line else (ell > 0) & np.isfinite(ell)))
        if bad.any():  # _guard raises the error of the first
            _guard(model, float(ell.flat[np.argmax(bad)]), float(lam.flat[np.argmax(bad)]))
        if half_line:
            dist, pole = np.where(lam <= 0, np.abs(lam), 0.0), np.where(lam <= 0, 0.0, lam)
        else:  # extra poles, then those of the indices max(first, n0) ... n0 + 1
            first, offset, extra = model._poles["graph"]
            n0 = np.floor(ell * _each(model._wavenumber, lam) / math.pi - offset)
            cands = np.concatenate([np.broadcast_to(extra, lam.shape + (len(extra),))] + [
                np.where((n >= first)[..., None], _each(model._pole, (n + offset) * math.pi / ell),
                         np.inf) for n in (n0, n0 + 1)], axis=-1)
            gaps = np.abs(lam[..., None] - cands)
            j = np.argmin(gaps, axis=-1)[..., None]  # the first of equally near poles
            dist, pole = (np.take_along_axis(a, j, -1)[..., 0] for a in (gaps, cands))
        on_pole = dist < _POLE_TOL * np.maximum(1.0, np.abs(pole))
        if half_line:
            z = np.sqrt(lam.astype(complex))[..., None, None]
            return dist, pole, on_pole, 1j * z, 1j / (2 * z) if derivative else None
        # _trig's three real regimes, math's exp and expm1 (numpy's round
        # differently on some machines), and the complex operations of
        # _kernel on real parts, signed zeros included: r = e/S is (e/S, 0/S).
        k2, dk2, rho, drho = model._reduce(lam)
        w = ell * ell * k2
        series, above = np.abs(w) < _SERIES_CUTOFF, w > 0
        z, y = np.sqrt(w), np.sqrt(-w)
        v = _each(math.expm1, -2.0 * y)
        c = np.where(series, _poly(_C_COEF, w), np.where(above, _each(math.cos, z), 1.0 + v / 2))
        s = np.where(series, _poly(_S_COEF, w),
                     np.where(above, _each(math.sin, z) / z, -v / (2 * y)))
        q, r = c / s, np.where(series | above, 1.0, _each(math.exp, -y)) / s
        m = np.stack([-q / ell, r / ell], -1).astype(complex)[..., [[0, 1], [1, 0]]]
        dm = None
        if derivative:  # ell (r^2 - q) / 2w and (-ell r)(q - 1) / 2w, w the real divisor
            p, t, ratio = -ell * r, q - 1, 0.0 / (2 * w)
            im12 = p * 0.0 + t * 0.0
            re = np.stack([np.where(series, ell * _poly(_D1_COEF, w), ell * (r * r - q) / (2 * w)),
                           np.where(series, ell * _poly(_E1_COEF, w),
                                    (p * t + im12 * ratio) / (2 * w))], -1)
            dm = re.astype(complex)
            dm.imag = np.where(series[..., None], 0.0,
                               np.stack([ratio, (im12 - p * t * ratio) / (2 * w)], -1))
            dm = dm[..., [[0, 1], [1, 0]]]
        if rho is not None:
            rho, drho, rdk2 = (x[..., None, None] for x in (rho, drho, rho * dk2))
            if derivative:
                dm = _DIRAC_PHASE * (drho * m + rdk2 * dm)
            m = rho * _DIRAC_PHASE * m
    return dist, pole, on_pole, m, dm


def weyl(model: EdgeModel, ell: float, lam, triplet: str = "graph",
         *, _pole_tol: float = _POLE_TOL) -> np.ndarray:
    """Boundary response matrix M(lambda) of one edge.

    ``triplet="hat"`` selects the alternative Dirac trace maps (first
    component at the left endpoint paired with the scaled second component
    at the right endpoint); ``"graph"`` is the convention used for vertex
    couplings throughout the package.  Raises PoleOfWeylError within 1e-9
    (relative) of a decoupled eigenvalue; ``_pole_tol`` lets the secular
    matrix apply its own guard within the same pole computation.

    The Dirac graph trace maps are Gamma0 = (psi1(0), i psi1(l)) and
    Gamma1 = (ic psi2(0), c psi2(l)).  At the gap center lambda0 = c^2/2,
    psi2 is constant and ic psi2 = (psi1(l) - psi1(0))/l, so
    M(lambda0) = (1/l)[[-1, -i], [i, -1]]; the hat value there is
    [[0, 1], [1, l]].
    """
    return _response(model, ell, lam, triplet, _pole_tol)[2]


def weyl_derivative(model: EdgeModel, ell: float, lam, triplet: str = "graph") -> np.ndarray:
    """d/dlambda of :func:`weyl`, from the differentiated closed forms."""
    return _response(model, ell, lam, triplet, derivative=True)[3]


def _special_values(model: EdgeModel, ell: float, lam0):
    """(distance to the nearest pole, M(lambda0), ||M'(lambda0)||) at a real
    point, from one pole computation."""
    if lam0.imag != 0.0:
        raise EdgeModelError(f"lambda0 must be real, got {lam0}")
    dist, _, m, dm = _response(model, ell, lam0, derivative=True)
    return dist, m, float(np.max(np.abs(np.linalg.eigvalsh(dm))))


def weyl_norm_prime(model: EdgeModel, ell: float, lam0=None) -> float:
    """Spectral norm of the Hermitian matrix M'(lambda0) at a real point,
    by default the model's ``_lambda0``: the gap center c^2/2 for Dirac, 0
    for the Laplacian (its decoupled ground states sit at (pi/l)^2 > 0)."""
    if lam0 is None:
        lam0 = model._lambda0
        if lam0 is None:
            raise EdgeModelError("half-line edges need an explicit lambda0 < 0")
    return _special_values(model, ell, lam0)[2]


def transform_triplet(weyl_value: np.ndarray, w_blocks: np.ndarray) -> np.ndarray:
    """Rewrite a boundary response matrix under a unitary change of trace maps.

    ``w_blocks`` is a 2d x 2d unitary acting on stacked (Gamma0, Gamma1)
    data, partitioned into d x d blocks W = [[W00, W01], [W10, W11]]; the
    transformed matrix is (W10 + W11 M)(W00 + W01 M)^{-1}.
    """
    m = np.asarray(weyl_value, dtype=complex)
    d = m.shape[0]
    w = np.asarray(w_blocks, dtype=complex)
    if w.shape != (2 * d, 2 * d):
        raise EdgeModelError(f"block matrix must be {2*d}x{2*d}, got {w.shape}")
    if np.linalg.norm(w.conj().T @ w - np.eye(2 * d)) > 1e-10:
        raise EdgeModelError("trace-map transform must be unitary")
    w00, w01 = w[:d, :d], w[:d, d:]
    w10, w11 = w[d:, :d], w[d:, d:]
    denom = w00 + w01 @ m
    if abs(np.linalg.det(denom)) < 1e-14 * max(1.0, np.linalg.norm(denom) ** d):
        raise EdgeModelError("singular W00 + W01*M in trace-map transform")
    return np.linalg.solve(denom.T, (w10 + w11 @ m).T).T


@dataclass(frozen=True)
class DefectElement:
    """Solution of the edge eigenvalue equation with prescribed Gamma0 data.

    ``ends`` holds the solution at both endpoints in two-point form:
    (psi1(0), psi1(l)) under the graph trace maps, Gamma0 = (psi1(0),
    ic psi2(l)) under the Dirac hat maps, (psi(0),) on a half-line.  In
    between, psi1 is the combination of c(x) = C(k^2 x^2) and
    s(x) = x S(k^2 x^2), taken at x and l - x, that matches them; for Dirac,
    ic psi2 = rho psi1'.  The hat maps use 1/rho = (lambda + c^2/2)/c^2 and
    rho k^2 = lambda - c^2/2, so that nothing divides by lambda + c^2/2.
    """

    model: EdgeModel
    ell: float
    lam: complex
    gamma0: tuple
    ends: tuple
    triplet: str = "graph"

    def values(self, x):
        """Solution values at points ``x``: shape (n,) scalar or (2, n) spinor."""
        x = np.asarray(x, dtype=float)
        if self.model.dim == 1:
            return self.ends[0] * np.exp(1j * _halfline_root(self.lam) * x)
        near, far = self.ends
        ell, lam = self.ell, complex(self.lam)
        if self.triplet == "hat":
            c2 = self.model.c * self.model.c
            k2 = (lam * lam - (c2 / 2) ** 2) / c2
        else:
            k2, _, rho, _ = self.model._reduce(lam)
        c_l, s_l, log_l = _trig(k2 * ell * ell)

        def cs(y):
            # (c(y), s(y)) times e(l); e(l)/e(y) has modulus at most 1.
            cy, sy, log_y = _trig(k2 * y * y)
            f = cmath.exp(log_l - log_y)
            return cy * f, y * sy * f

        cx, sx = np.array([cs(y) for y in x], dtype=complex).reshape(-1, 2).T
        cr, sr = np.array([cs(y) for y in ell - x], dtype=complex).reshape(-1, 2).T
        if self.triplet == "hat":
            # far = ic psi2(l) = rho psi1'(l); flux = ic psi2 = rho psi1'.
            psi1 = (near * cr + far * ((lam + c2 / 2) / c2) * sx) / c_l
            flux = (near * (lam - c2 / 2) * sr + far * cx) / c_l
        else:
            psi1 = (near * sr + far * sx) / (ell * s_l)
            if rho is None:
                return psi1
            flux = rho * ((far * cx - near * cr) / (ell * s_l))
        return np.vstack([psi1, flux / (1j * self.model.c)])

    def boundary_data(self):
        """Return (Gamma0, Gamma1 = M(lam) Gamma0) under the element's trace
        convention."""
        gamma0 = np.array(self.gamma0, dtype=complex)
        return gamma0, _response(self.model, self.ell, self.lam, self.triplet)[2] @ gamma0


def defect_element(model: EdgeModel, ell: float, lam, gamma0,
                   triplet: str = "graph") -> DefectElement:
    """Defect solution with Gamma0 data ``gamma0`` at spectral point ``lam``.

    Gamma0 holds psi1(0) and the far-end datum: psi1(l) (times i for
    Dirac) under the graph trace maps, ic psi2(l) under the hat maps.
    """
    _guard(model, ell, lam, triplet)
    gamma0 = np.asarray(gamma0, dtype=complex)
    if gamma0.shape != (model.dim,):
        raise EdgeModelError(
            f"gamma0 must have shape ({model.dim},), got {gamma0.shape}"
        )
    lam = complex(lam)
    if model.dim == 1:
        return DefectElement(model, ell, lam, (gamma0[0],), (gamma0[0],), triplet)
    far = gamma0[1] / model._phases[1] if triplet == "graph" else gamma0[1]
    return DefectElement(model, ell, lam, tuple(gamma0), (gamma0[0], far), triplet)


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(24)


def green_identity_residual(f: DefectElement, g: DefectElement) -> complex:
    """Residual of the boundary form identity for two defect elements.

    Returns (lam_f - conj(lam_g)) * <f, g>_{L^2} - [<Gamma1 f, Gamma0 g>
    - <Gamma0 f, Gamma1 g>]; the L^2 pairing is computed with fixed
    24-point Gauss-Legendre quadrature (the integrands are entire).
    """
    if (f.model, f.ell, f.triplet) != (g.model, g.ell, g.triplet):
        raise EdgeModelError("defect elements must live on the same edge")
    if f.model.dim == 1:
        raise EdgeModelError("Green identity check is for finite edges")
    x = 0.5 * f.ell * (_GAUSS_NODES + 1.0)
    wq = 0.5 * f.ell * _GAUSS_WEIGHTS
    fv, gv = f.values(x), g.values(x)
    if fv.ndim == 1:
        inner = np.sum(wq * fv * np.conj(gv))
    else:
        inner = np.sum(wq * (fv * np.conj(gv)).sum(axis=0))
    g0f, g1f = f.boundary_data()
    g0g, g1g = g.boundary_data()
    boundary = np.vdot(g0g, g1f) - np.vdot(g1g, g0f)
    return (complex(f.lam) - np.conj(complex(g.lam))) * inner - boundary


def _index_span(model: EdgeModel, ell: float, window, triplet: str = "graph"):
    """(lo, hi): the poles in a finite window [a, b] on an interval edge have
    the indices floor(lo) ... floor(hi) + 1, as their wavenumbers run from 0
    (if [a, b] holds 0) or the smaller end's to the larger end's.  hi - lo is
    linear in ell."""
    offset = model._poles[triplet][1]
    a, b = window
    ends = (model._wavenumber(a), model._wavenumber(b))
    return tuple(ell * k / math.pi - offset
                 for k in (0.0 if a <= 0 <= b else min(ends), max(ends)))


def decoupled_eigenvalues(model: EdgeModel, ell: float, window=None, count=None,
                          triplet: str = "graph") -> np.ndarray:
    """Spectrum of the decoupled edge operator (poles of the response matrix).

    Exactly one of ``window=(a, b)`` or ``count`` must be given.  ``count``
    (an integer >= 0) means the first ``count`` wavenumber indices, and a
    window the poles in it of the indices between the wavenumbers of its
    ends; for the Dirac model each index yields a +/- pair and the graph
    triplet additionally contains the gap edge -c^2/2.  Either range may
    span at most 10**6 indices.  Half-line edges have no eigenvalues (their
    decoupled spectrum is the continuous ray), so the result is empty.
    """
    _check_triplet(model, triplet)
    _check_length(model, ell)
    if (window is None) == (count is None):
        raise EdgeModelError("specify exactly one of window or count")
    if window is not None and not (math.isfinite(window[0]) and math.isfinite(window[1])):
        raise EdgeModelError("window bounds must be finite")
    if count is not None and not (isinstance(count, (int, np.integer)) and count >= 0):
        raise EdgeModelError(f"count must be an integer >= 0, got {count!r}")
    if model.dim == 1:
        return np.array([])
    first, offset, extra = model._poles[triplet]
    start = first
    if window is not None:
        lo, hi = _index_span(model, ell, window, triplet)
        if not hi - lo <= _MAX_POLE_INDICES:
            raise EdgeModelError(f"window={window} is not finite or overflows the pole "
                                 f"index cap of {_MAX_POLE_INDICES} per edge")
        start = max(first, math.floor(lo))
        count = max(0, math.floor(hi) + 2 - start)
    elif count > _MAX_POLE_INDICES:
        raise EdgeModelError(f"count={count} overflows the pole index cap of "
                             f"{_MAX_POLE_INDICES} per edge")
    vals = list(extra) + [p for n in range(start, start + count)
                          for p in model._pole((n + offset) * math.pi / ell)]
    if window is not None:
        vals = [v for v in vals if window[0] <= v <= window[1]]
    return np.array(sorted(vals))
