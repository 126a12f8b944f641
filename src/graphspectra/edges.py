"""Closed-form boundary data for the operators living on single edges.

Three edge operators are supported: the free Laplacian -d^2/dx^2 on a
finite interval, the free Dirac operator with mass term c^2/2 on a finite
interval, and the Laplacian on a half-line.  For each one this module
evaluates the boundary response matrix M(lambda) (the map from prescribed
trace data to the complementary trace data of the solution of the edge
eigenvalue equation), its derivative, the defect solutions themselves,
and the spectrum of the decoupled (trace-zero) edge operator.

Both interval models share one kernel, the Laplacian response
M_L(l; k^2) = [[-q, r], [r, -q]] / l of -psi'' = k^2 psi on [0, l].  Each
model reduces lambda to k^2 and a scale rho (``_reduce``): k^2 = lambda,
rho = 1 for the Laplacian; k^2 = (lambda^2 - c^4/4) / c^2 (which the first
spinor component sees) and rho = c^2 / (lambda + c^2/2) for Dirac.  Every
graph-map response is then the block, with t = p0 conj(p1) of the trace
phases ``_phases`` (1 for the Laplacian, -i for Dirac),

    M = rho [[-q, t r], [conj(t) r, -q]] / l,   M' = rho' M_L + rho (k^2)' M_L'

blockwise, so ||M'|| = |M'_00| + |M'_01|.  The poles of M are the
k^2-preimages of the Dirichlet values (n pi/l)^2, n >= 1, plus, for Dirac,
the pole of rho at -c^2/2.  Each model class states its conventions once,
and the package reads them from there instead of testing the class: the
boundary dimension ``dim`` (2, or 1 on a half-line), the pole family
``_poles`` of each trace map it admits (first index, index offset and
extra poles: the wavenumber is (n + offset) pi / l, n >= first; None on
the half-line, whose decoupled spectrum is the ray), ``_half_line``,
``_lambda0`` and, on the interval models, ``_reduce``, ``_pole`` (the
preimages of a wavenumber), ``_wavenumber``, ``_phases`` (the
delta-coupling vector), the flux scale ``_flux`` (c for Dirac), whether a
solution is a ``_spinor``, the first-order ``_system`` and ``bounded_below``.

Every interval evaluation is written with ratios of the entire functions
S(w) = sin(sqrt(w)) / sqrt(w) and C(w) = cos(sqrt(w)) at w = l^2 k^2, valid
above threshold, inside spectral gaps and at complex lambda alike.
``_trig`` returns C and S times a common scale e with |e| <= 1, and log e
(series near w = 0, exp(-sqrt(-w)) for real w < 0, exp(i sqrt(w)) for
Im sqrt(w) > 20): the kernel (q = C/S, r = 1/S = e/(S e)), the Dirac "hat"
trace maps (S/C and 1/C, poles at cos(l k) = 0) and the defect solutions
are ratios of its output, so none of them overflows.  The half-line has
the Herglotz branch of i sqrt(lambda) as its response (``_halfline``).

Every scalar entry point reads ``_response`` (``_block``), which takes the
length and a real lambda as Python floats; ``weyl`` on a list of lambda
values stacks its calls.  ``_delta_weights`` is the one array form of
``_trig``'s real regimes over all edges and a batch of lambda values: the
scan's counts on delta trees read it, and so does ``_responses`` (the pole
guard plus M and M', or M(lambda) - M(lambda0) from ``_change``, in
``_pair``'s blocks), called by ``build_regularization`` and
``check_mtilde_divergence``.  The two paths agree to rounding, and
exactly in the series at w = 0.  ``_pole`` squares a wavenumber with one
multiply, for a float and an array alike (a pole past the float range is
inf); ``_window_poles`` lists the poles of all edges in a window in one
array pass, and ``decoupled_eigenvalues`` is its one-edge case.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
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
        super().__init__(f"lambda={lam} too close to decoupled eigenvalue {nearest_pole}")


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
    _spinor = False
    bounded_below = True

    @staticmethod
    def _reduce(lam):
        """(k^2, dk^2/dlambda, rho, drho/dlambda): the identity reduction."""
        return lam, 1.0, 1.0, 0.0

    @staticmethod
    def _pole(k):
        """Spectral points at which the wavenumber is the real number k (or
        each element of the array k)."""
        return (k * k,)

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
    _phases = (1 + 0j, 1j)
    _spinor = True
    bounded_below = False

    def __post_init__(self):
        try:  # _pole forms c^4
            valid = self.c > 0 and math.isfinite(self.c ** 4)
        except OverflowError:
            valid = False
        if not valid:
            raise EdgeModelError("Dirac speed of light must be positive with a finite c^4, "
                                 f"got {self.c}")
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
        k2, dk2 = (lam * lam - (c2 / 2) ** 2) / c2, 2 * lam / c2
        try:
            rho = c2 / shift
            return k2, dk2, rho, -rho / shift
        except ZeroDivisionError:  # the pole of rho, a pole of the graph maps only
            return k2, dk2, math.inf, -math.inf

    def _pole(self, k):
        ck = self.c * k
        v = ck * ck + self.c ** 4 / 4
        root = np.sqrt(v) if isinstance(k, np.ndarray) else math.sqrt(v)
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

_SERIES_CUTOFF = 1e-3

# Taylor coefficients around w = 0 (w = z^2):
#   S(w) = sin(z)/z, C(w) = cos(z),
#   D1(w) = -d/dw (C/S), E1(w) = d/dw (1/S), T(w) = z tan(z/2) / w.
_S_COEF = [1.0, -1 / 6, 1 / 120, -1 / 5040, 1 / 362880, -1 / 39916800]
_C_COEF = [1.0, -1 / 2, 1 / 24, -1 / 720, 1 / 40320, -1 / 3628800]
_T_COEF = [1 / 2, 1 / 24, 1 / 240, 17 / 40320, 31 / 725760]
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
    if type(w) is not float and w.imag == 0.0:
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


def _family(model: EdgeModel, ell: float, triplet: str):
    """The pole family of ``triplet`` on ``model`` (None on a half-line),
    after checking that the model has that triplet and takes ``ell``."""
    if triplet not in ("graph", "hat"):
        raise EdgeModelError(f"unknown triplet {triplet!r}")
    if triplet not in model._poles:
        raise EdgeModelError("the 'hat' trace maps exist only for the Dirac model")
    family = model._poles[triplet]
    if family is None and not math.isinf(ell):
        raise EdgeModelError("half-line model requires length = inf")
    if family is not None and not (ell > 0 and math.isfinite(ell)):
        raise EdgeModelError(f"interval edge needs finite positive length, got {ell}")
    return family


def _guard(model, ell, lam, triplet="graph", tol=_POLE_TOL):
    """(distance, pole, lam): the one pole computation of an edge evaluation,
    lam as a Python float if real (|lam - p| is then the complex distance
    exactly), else complex.  Raises EdgeModelError for a lam that is not
    finite or whose l^2 |k^2| overflows, and PoleOfWeylError within
    ``tol * max(1, |pole|)`` of the nearest decoupled eigenvalue."""
    family = _family(model, ell, triplet)
    if type(lam) is not float:
        lam = float(lam) if isinstance(lam, (float, numbers.Real)) else complex(lam)
    x, size = lam.real, abs(lam)
    k = 0.0 if family is None else model._wavenumber(size)
    lk = ell * k if k else 0.0
    if not (cmath.isfinite(lam) and math.isfinite(lk * lk)):
        raise EdgeModelError(f"lambda={complex(lam)} is not finite or overflows the edge "
                             "evaluation")
    if family is None:
        dist, pole = (size, 0.0) if x <= 0 else (abs(lam.imag), x)
    else:
        # All poles are real, so the nearest one brackets Re lam: its index
        # is n0 or n0 + 1, with (n0 + offset) pi / l the last pole wavenumber
        # at or below that of Re lam.  n0 + 1 >= first in every family.
        first, offset, candidates = family
        if x != size:
            k = model._wavenumber(x)
        n0 = math.floor(ell * k / math.pi - offset)
        if n0 >= first:
            candidates += model._pole((n0 + offset) * math.pi / ell)
        candidates += model._pole((n0 + 1 + offset) * math.pi / ell)
        dist = pole = None
        for p in candidates:  # the first of equally near poles wins
            d = abs(lam - p)
            if dist is None or d < dist:
                dist, pole = d, p
    if dist < tol * max(1.0, abs(pole)):
        raise PoleOfWeylError(complex(lam), pole)
    return dist, pole, lam


def pole_distance(model: EdgeModel, ell: float, lam, triplet: str = "graph"):
    """Distance from ``lam`` to the decoupled edge spectrum and the nearest point.

    For interval models the decoupled spectrum is the closed-form pole set of
    the boundary response matrix; for the half-line it is the ray [0, inf).
    """
    return _guard(model, ell, lam, triplet, tol=0.0)[:2]


def _halfline(lam):
    """The half-line's (M, M') = (i z, i / 2z) over the array (or number) lam,
    z = sqrt(lam) on the branch Im z >= 0: M continues -sqrt(-lam) from lam < 0."""
    z = np.sqrt(np.asarray(lam, dtype=complex))
    z = np.where(z.imag < 0, -z, z)
    return 1j * z, 1j / (2 * z)


def _phase(model):
    """The graph maps' off-diagonal phase t = p0 conj(p1) of the model's trace
    phases ``_phases`` (p0, p1): 1 for the Laplacian, -i for Dirac."""
    p0, p1 = model._phases
    return p0 * p1.conjugate()


def _block(scale, a, b, t):
    """The 2x2 matrix scale [[a, t b], [conj(t) b, a]], each entry (scale p) x
    for its phase p, every operand complex (x + 0j) so that Python's mixed
    float/complex rules play no part: ``_pair``'s bytes at real lambda."""
    scale, a, b = scale + 0j, a + 0j, b + 0j
    m = np.empty((2, 2), complex)
    m[0, 0] = m[1, 1] = scale * a
    m[0, 1], m[1, 0] = scale * t * b, scale * t.conjugate() * b
    return m


def _pair(scale, a, b, t):
    """``_block`` over the (length, lambda) arrays a and b and a scale per
    lambda (or one): the (length, lambda, 2, 2) stack."""
    phase = np.multiply.outer(scale, np.array([1, t, t.conjugate()]))
    return (phase * np.stack([a, b, b], -1))[..., [[0, 1], [2, 0]]]


def _weyl_hat(model, ell, lam, derivative):
    """Dirac response and derivative under the hat trace maps.

    Written in t = S/C = tan(z)/z and sec = 1/C, z = sqrt(w), with
    dt/dw = (sec^2 - t)/(2w) by 1 + w t^2 = sec^2, or t^2 D1(w) near w = 0.
    """
    c2 = model.c * model.c
    half_gap = c2 / 2
    k2, dk2, _, _ = model._reduce(lam)
    w = ell * ell * k2
    cw, s, log_e = _trig(w)
    t, sec = s / cw, cmath.exp(log_e) / cw
    m = np.array([[(lam - half_gap) * ell * t, sec], [sec, (lam + half_gap) * ell * t / c2]],
                 complex)
    if not derivative:
        return m, None
    wp = ell * ell * dk2
    if abs(w) < _SERIES_CUTOFF:
        dt = t * t * _poly(_D1_COEF, w) * wp
    else:
        dt = (sec * sec - t) / (2 * w) * wp
    d11 = ell * (t + (lam - half_gap) * dt)
    d12 = sec * t * wp / 2
    d22 = (ell / c2) * (t + (lam + half_gap) * dt)
    return m, np.array([[d11, d12], [d12, d22]], complex)


def _response(model, ell, lam, triplet="graph", derivative=False):
    """(distance, pole, M(lam), M'(lam) or None): the one scalar evaluation.

    The graph maps are ``_block``s of M_L(l; k^2) = [[-q, r], [r, -q]] / l,
    q = C/S = z cot z, r = 1/S = z csc z; r^2 = q^2 + w makes dM_L/d(k^2)
    l (r^2 - q)/2w and -l r (q - 1)/2w.  At real w, r is the float e/S: Python's
    complex e/S only adds an imaginary zero that M drops, but whose sign M' keeps.
    """
    if type(ell) is not float:  # an np.float64 length would round M' the numpy way
        ell = float(ell)
    dist, pole, lam = _guard(model, ell, lam, triplet)
    if model.dim == 1:
        return (dist, pole) + tuple(x.reshape(1, 1) for x in _halfline(lam))
    if triplet == "hat":
        return (dist, pole) + _weyl_hat(model, ell, lam, derivative)
    k2, dk2, rho, drho = model._reduce(lam)
    w = ell * ell * k2
    c, s, log_e = _trig(w)
    q = c / s
    r = (math.exp(log_e) if type(log_e) is float else cmath.exp(log_e)) / s
    a, b, t = -q / ell, r / ell, _phase(model)
    m, dm = _block(rho, a, b, t), None
    if derivative:
        if abs(w) < _SERIES_CUTOFF:
            d11, d12 = ell * _poly(_D1_COEF, w), ell * _poly(_E1_COEF, w)
        else:
            r = cmath.exp(log_e) / s
            d11, d12 = ell * (r * r - q) / (2 * w), -ell * r * (q - 1) / (2 * w)
        dm = _block(drho, a, b, t) + _block(rho * dk2, d11, d12, t)
    return dist, pole, m, dm


def _responses(model, ell, lam, since=None):
    """``_response`` of the graph trace maps over the 1-d array ``ell`` of
    lengths at a real ``lam``, or at each of a 1-d array of them (a second
    axis, each column the bytes of its lambda alone): (dist, pole, on_pole,
    M, M'), the distance and nearest pole exactly as ``_guard``
    gives them (one ``_pole`` call for all), M and M' from ``_delta_weights``
    in ``_pair``'s blocks, or from ``_halfline`` (undefined where on_pole).
    With a real ``since``, M(lam) - M(since) (``_change``) replaces M.  The
    first invalid length at the first lambda with one, or an invalid lam,
    raises the error of ``_guard``."""
    ell, lams = np.asarray(ell, dtype=float), np.asarray(lam, dtype=float).reshape(-1)
    grid, half_line = ell[:, None], model.dim == 1  # lengths down, lambda values across
    with np.errstate(all="ignore"):
        lk = 0.0 if half_line else grid * [model._wavenumber(abs(x)) for x in lams.tolist()]
        bad = ~(np.isfinite(lams) & np.isfinite(lk * lk)
                & (np.isinf(grid) if half_line else (grid > 0) & np.isfinite(grid)))
        if bad.any():  # _guard raises the error of the first
            col = np.argmax(bad.any(axis=0))
            _guard(model, float(ell[np.argmax(bad[:, col])]), lams[col])
        if half_line:  # every length is inf; the decoupled spectrum is the ray [0, inf)
            x = np.broadcast_to(lams, (len(ell), len(lams)))
            dist, pole = np.where(x <= 0, np.abs(x), 0.0), np.where(x <= 0, 0.0, x)
            m, dm = (v[..., None, None] for v in _halfline(x))
            if since is not None:
                m = m - _halfline(since)[0]
        else:  # extra poles, then those of the indices max(first, n0) ... n0 + 1
            first, offset, extra = model._poles["graph"]
            # The candidates depend on lambda through its wavenumber alone.
            k, inv = np.unique([model._wavenumber(x) for x in lams.tolist()], return_inverse=True)
            n = np.floor(grid * k / math.pi - offset)[:, :, None] + [0.0, 1.0]
            poles = np.stack(model._pole((n + offset) * math.pi / grid[:, :, None]), -1)
            cands = np.concatenate([np.broadcast_to(extra, n.shape[:2] + (len(extra),)),
                                    np.where((n >= first)[..., None], poles, np.inf)
                                    .reshape(n.shape[:2] + (-1,))], axis=-1)[:, inv]
            gaps = np.abs(lams[:, None] - cands)
            j = np.argmin(gaps, axis=-1)[..., None]  # the first of equally near poles
            dist, pole = (np.take_along_axis(a, j, -1)[..., 0] for a in (gaps, cands))
            # M_L = [[-q, r], [r, -q]] / l and dM_L/d(k^2) = l [[d, e], [e, d]].
            r, q, d, e = _delta_weights(model, ell, lams, derivative=True)
            _, dk2, rho, drho = model._reduce(lams)
            a, b, t = -q / grid, r / grid, _phase(model)
            m = _pair(rho, a, b, t)
            dm = _pair(drho, a, b, t) + _pair(rho * dk2, grid * d, grid * e, t)
            if since is not None:
                m = _change(model, grid, lams, float(since), r, q)
        on_pole = dist < _POLE_TOL * np.maximum(1.0, np.abs(pole))
    out = dist, pole, on_pole, m, dm
    return out if np.ndim(lam) else tuple(x[:, 0] for x in out)


def _divided(dcoef, w, w0):
    """(p(w) - p(w0)) / (w - w0) for the series p with p' = _poly(dcoef, .):
    the quotient of p by w - w0 (synthetic division), at w."""
    acc, quotient = 0.0, []
    for j in range(len(dcoef), 0, -1):  # p's coefficient of w^j is dcoef[j - 1] / j
        acc = acc * w0 + dcoef[j - 1] / j
        quotient.append(acc)
    return _poly(quotient[::-1], w)


def _change(model, ell, lam, lam0, r, q):
    """M(lam) - M(lam0) of the graph trace maps over the column ``ell`` of
    interval lengths and the 1-d array ``lam`` (M(lam0) formed once), given
    r and q at lam, without subtracting two matrices of size 1/l: where |w|
    and |w0| are in the series, r and q change by w - w0 = l^2 (lam - lam0)
    (dk^2(lam) + dk^2(lam0)) / 2 (exact for k^2, a quadratic in lambda) times
    their divided differences (E1, -D1 integrated), elsewhere by r(w) - r(w0)
    and q(w) - q(w0); M changes by rho (M_L - M_L0) + (rho - rho0) M_L0 blockwise."""
    r0, q0 = _delta_weights(model, ell[:, 0], np.array([lam0]), derivative=True)[:2]
    (k2, dk2, rho, _), (k20, dk20, rho0, _) = model._reduce(lam), model._reduce(lam0)
    w, w0 = ell * ell * k2, ell * ell * k20
    dr, dq = r - r0, q - q0
    series = (np.abs(w) < _SERIES_CUTOFF) & (np.abs(w0) < _SERIES_CUTOFF)
    if series.any():
        dw = (ell * ell * ((lam - lam0) * (dk2 + dk20) / 2))[series]
        ws, w0s = w[series], np.broadcast_to(w0, w.shape)[series]
        dr[series] = dw * _divided(_E1_COEF, ws, w0s)
        dq[series] = -dw * _divided(_D1_COEF, ws, w0s)
    t = _phase(model)
    return _pair(rho, -dq / ell, dr / ell, t) + _pair(rho - rho0, -q0 / ell, r0 / ell, t)


def _above(x):
    """(r, u) = (z csc z, z tan(z/2)) at the real z = x."""
    return x / np.sin(x), x * np.tan(x / 2)


def _below(x):
    """(r, u) at z = ix: (x / sinh x, -x tanh(x/2)), without overflow."""
    return -2 * x * np.exp(-x) / np.expm1(-2 * x), -x * np.tanh(x / 2)


def _delta_weights(model, ell, lam, derivative=False):
    """(b, t) = (rho k csc(k l), rho k tan(k l / 2)) over the array ``ell`` of
    interval lengths and the 1-d array ``lam`` of real values, of shape
    (len(ell), len(lam)): a delta coupling's secular matrix has -b off its
    diagonal and b - t on it (r = z csc z, q = r - z tan(z/2)).  _trig's
    real regimes as ufuncs, without overflow (y / sinh y =
    -2y e^-y / expm1(-2y)) or pole guard.  With ``derivative``, (r, q, d, e)
    instead, for M_L = [[-q, r], [r, -q]] / l and dM_L/d(k^2) =
    l [[d, e], [e, d]]: d = (r^2 - q) / 2w and e = -r (q - 1) / 2w by
    r^2 = q^2 + w, or the series D1(w) and E1(w).  Each column holds the
    bytes of its lambda alone: a batch of one sign of k^2 takes that sign's
    ufuncs, a mixed one each on its own columns."""
    k2, _, rho, _ = model._reduce(lam)
    ell = ell[:, None]
    with np.errstate(over="ignore"):  # an overflow raises EdgeModelError below
        w = ell * ell * k2
    size = np.abs(w)
    if not math.isfinite(size.max(initial=0.0)):
        bad = lam[np.argmin(np.isfinite(size).all(axis=0))]
        raise EdgeModelError(f"lambda={float(bad)} overflows the edge evaluation")
    series = size < _SERIES_CUTOFF
    near = np.count_nonzero(series)
    x = np.sqrt(np.where(series, 1.0, size) if near else size)  # |z|
    ks = k2.tolist()
    if min(ks) > 0.0:
        r, u = _above(x)
    elif max(ks) <= 0.0:
        r, u = _below(x)
    else:
        r, u = np.empty_like(x), np.empty_like(x)
        for cols, branch in ((k2 > 0.0, _above), (k2 <= 0.0, _below)):
            r[:, cols], u[:, cols] = branch(x[:, cols])
    if near:
        ws = w[series]
        r[series], u[series] = 1 / _poly(_S_COEF, ws), ws * _poly(_T_COEF, ws)
    if not derivative:
        return rho * r / ell, rho * u / ell
    q = r - u
    two_w = 2 * np.where(series, 1.0, w)
    d, e = (r * r - q) / two_w, -r * (q - 1) / two_w
    if near:
        d[series], e[series] = _poly(_D1_COEF, ws), _poly(_E1_COEF, ws)
    return r, q, d, e


def weyl(model: EdgeModel, ell: float, lam, triplet: str = "graph") -> np.ndarray:
    """Boundary response matrix M(lambda) of one edge.

    ``triplet="hat"`` selects the alternative Dirac trace maps (first
    component at the left endpoint paired with the scaled second component
    at the right endpoint); ``"graph"`` is the convention used for vertex
    couplings throughout the package.  Raises PoleOfWeylError within 1e-9
    (relative) of a decoupled eigenvalue, the guard of every edge evaluation.

    The Dirac graph trace maps are Gamma0 = (psi1(0), i psi1(l)) and
    Gamma1 = (ic psi2(0), c psi2(l)).  At the gap center lambda0 = c^2/2,
    psi2 is constant and ic psi2 = (psi1(l) - psi1(0))/l, so
    M(lambda0) = (1/l)[[-1, -i], [i, -1]]; the hat value there is
    [[0, 1], [1, l]].

    A list of m values gives the (m, d, d) stack of their scalar calls,
    the first bad lambda raising its error.
    """
    if type(lam) is not list:
        return _response(model, ell, lam, triplet)[2]
    return np.array([_response(model, ell, x, triplet)[2] for x in lam])


def weyl_derivative(model: EdgeModel, ell: float, lam, triplet: str = "graph") -> np.ndarray:
    """d/dlambda of :func:`weyl`, from the differentiated closed forms."""
    return _response(model, ell, lam, triplet, derivative=True)[3]


def _special_values(model: EdgeModel, ell: float, lam0):
    """(distance to the nearest pole, M(lambda0), ||M'(lambda0)||) at real lambda0:
    M' = [[a, t x], [conj(t) x, a]] (a, x real, |t| = 1) has the eigenvalues
    a +- |x|, so the norm is its first row's |a| + |t x| (|a| on a half-line)."""
    if lam0.imag != 0.0:
        raise EdgeModelError(f"lambda0 must be real, got {lam0}")
    dist, _, m, dm = _response(model, ell, lam0, derivative=True)
    return dist, m, float(np.abs(dm[0]).sum())


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
            return self.ends[0] * np.exp(_halfline(self.lam)[0] * x)
        near, far = self.ends
        ell, lam = self.ell, complex(self.lam)
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
            c2 = self.model.c * self.model.c
            psi1 = (near * cr + far * ((lam + c2 / 2) / c2) * sx) / c_l
            flux = (near * (lam - c2 / 2) * sr + far * cx) / c_l
        else:
            psi1 = (near * sr + far * sx) / (ell * s_l)
            flux = rho * ((far * cx - near * cr) / (ell * s_l))
        return np.vstack([psi1, flux / (1j * self.model._flux)]) if self.model._spinor else psi1

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
    lam = complex(_guard(model, ell, lam, triplet)[2])
    gamma0 = np.asarray(gamma0, dtype=complex)
    if gamma0.shape != (model.dim,):
        raise EdgeModelError(f"gamma0 must have shape ({model.dim},), got {gamma0.shape}")
    if model.dim == 1:
        return DefectElement(model, ell, lam, (gamma0[0],), (gamma0[0],), triplet)
    far = gamma0[1] / model._phases[1] if triplet == "graph" else gamma0[1]
    return DefectElement(model, ell, lam, tuple(gamma0), (gamma0[0], far), triplet)


@functools.cache
def _gauss_rule():
    """The 24-point Gauss-Legendre rule; numpy.polynomial is imported on first use."""
    return np.polynomial.legendre.leggauss(24)


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
    nodes, weights = _gauss_rule()
    x = 0.5 * f.ell * (nodes + 1.0)
    wq = 0.5 * f.ell * weights
    fv, gv = f.values(x), g.values(x)
    if fv.ndim == 1:
        inner = np.sum(wq * fv * np.conj(gv))
    else:
        inner = np.sum(wq * (fv * np.conj(gv)).sum(axis=0))
    g0f, g1f = f.boundary_data()
    g0g, g1g = g.boundary_data()
    boundary = np.vdot(g0g, g1f) - np.vdot(g1g, g0f)
    return (complex(f.lam) - np.conj(complex(g.lam))) * inner - boundary


def _index_span(model: EdgeModel, ell, window, triplet: str = "graph"):
    """(lo, hi): the poles in a finite window [a, b] on an interval edge have
    the indices floor(lo) ... floor(hi) + 1, as their wavenumbers run from 0
    (if [a, b] holds 0) or the smaller end's to the larger end's.  hi - lo is
    linear in ell, a length or an array of lengths."""
    offset = model._poles[triplet][1]
    a, b = window
    ends = (model._wavenumber(a), model._wavenumber(b))
    return tuple(ell * k / math.pi - offset
                 for k in (0.0 if a <= 0 <= b else min(ends), max(ends)))


def _listed_poles(model: EdgeModel, ell, start, count, triplet: str = "graph"):
    """The poles of the indices start ... start + count - 1 on each interval
    edge of the lengths ``ell`` (1-d arrays; ``start`` integer-valued
    floats), unsorted, and the family's extra poles once if there is an
    edge: one ``_pole`` call over all wavenumbers (n + offset) pi / l,
    which float64 rounds as Python does from the integer n."""
    _, offset, extra = model._poles[triplet]
    count = np.maximum(count, 0).astype(np.intp)
    ends = np.cumsum(count)
    n = np.repeat(start, count) + (np.arange(ends[-1] if ends.size else 0)
                                   - np.repeat(ends - count, count))
    k = (n + offset) * math.pi / np.repeat(ell, count)
    with np.errstate(over="ignore"):  # a pole past the float range is inf: in no window
        poles = model._pole(k)
    return np.concatenate([np.array(extra if ell.size else (), dtype=float), *poles])


def _window_poles(model: EdgeModel, ell, window, triplet: str = "graph") -> np.ndarray:
    """The poles in the finite window [a, b] of the interval edges of the
    lengths ``ell`` (a 1-d array), sorted, one per edge and pole (extra
    poles once): those of each edge's indices max(first, floor(lo)) ...
    floor(hi) + 1 (``_index_span``).  The callers cap the span; under the
    cap, floor(hi) - start is exact in float64."""
    first = model._poles[triplet][0]
    lo, hi = _index_span(model, ell, window, triplet)
    start = np.maximum(first, np.floor(lo))
    poles = _listed_poles(model, ell, start, np.floor(hi) - start + 2, triplet)
    return np.sort(poles[(window[0] <= poles) & (poles <= window[1])])


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
    This is the one-edge case of the graph's pole list.
    """
    family = _family(model, ell, triplet)
    if (window is None) == (count is None):
        raise EdgeModelError("specify exactly one of window or count")
    if window is not None and not (math.isfinite(window[0]) and math.isfinite(window[1])):
        raise EdgeModelError("window bounds must be finite")
    if count is not None and not (isinstance(count, (int, np.integer)) and count >= 0):
        raise EdgeModelError(f"count must be an integer >= 0, got {count!r}")
    if family is None:
        return np.array([])
    lengths = np.array([ell], dtype=float)
    if window is not None:
        lo, hi = _index_span(model, ell, window, triplet)
        if not hi - lo <= _MAX_POLE_INDICES:
            raise EdgeModelError(f"window={window} is not finite or overflows the pole "
                                 f"index cap of {_MAX_POLE_INDICES} per edge")
        return _window_poles(model, lengths, window, triplet)
    if count > _MAX_POLE_INDICES:
        raise EdgeModelError(f"count={count} overflows the pole index cap of "
                             f"{_MAX_POLE_INDICES} per edge")
    return np.sort(_listed_poles(model, lengths, np.array([float(family[0])]),
                                 np.array([count]), triplet))
