"""Eigenvalue computation on finite graphs, by two independent routes.

Route 1 (matching / secular matrix): lambda is an eigenvalue of the
coupled operator, for lambda outside the decoupled edge spectra, exactly
when the Hermitian matrix

    K(lambda)[i, j] = <(L - M(lambda)) bhat_j, bhat_i>

over the orthonormalized global basis is singular.  Since every edge
response matrix has positive-definite derivative on real gaps, K is
strictly decreasing in lambda between consecutive poles, so each sorted
eigenvalue branch of K crosses zero at most once per pole-free cell and
Brent's method on the branches finds every root, with the number of
branches crossing there as its multiplicity - in particular
even-multiplicity roots that a bare determinant sign scan cannot see.
Only the edge term M(lambda) depends on lambda, so a scan compiles the
rest of K once and repeats only the per-lambda step: one
edge response per edge, an O(nnz) scatter-add of their entries and one
eigensolve, in real arithmetic when K is real (delta couplings in both
edge models).  Brent's zero is a point it evaluated, so each root's
residual |det K| is read off the eigenvalues kept there, and no lambda is
evaluated twice.

Route 2 (oracle): per edge, the raw first-order ODE system is integrated
by classical RK4 to build transfer matrices; the vertex conditions
(trace data in the coupling subspace plus the Hermitian-block flux
condition) are assembled into one global matrix whose determinant
vanishes at eigenvalues.  No closed-form trigonometry enters, so this
route is algorithmically independent of route 1 and is also valid at
points embedded in the decoupled spectra, where the matching criterion
is silent.  The vertex conditions are compiled once per call into a fixed
linear map from the transfer matrices to the global matrix (real when the
coupling data are real, so that LU runs in real arithmetic).  Both edge
systems have zero diagonal, so each RK4 transfer matrix is a pair (x, y)
of x I + y A, powered elementwise over all edges and one chunk of lambda
values at a time; each block of matrices is a copy of the constant part
and an O(nnz) scatter of the transfer entries, and sign changes of the
determinant are polished by the same Brent zeroin as route 1.  The
zeroin is a coroutine, so the oracle polishes all its candidates in
lockstep rounds, with one stacked determinant or singular-value call per
round and block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import edges as em
from .coupling import VertexCoupling, _CompiledPairing, _delta_phases, _vertex_blocks
from .graphs import MetricGraph, edge_model_for

__all__ = [
    "Root",
    "SpectrumResult",
    "OracleConvergenceError",
    "krein_matrix",
    "scan_spectrum",
    "oracle_eigenvalues",
    "lower_bound_certificate",
    "match_spectra",
    "spectrum_csv",
]

_POLE_GUARD = 1e-8
_KERNEL_CUTOFF = 1e-7
_EXCLUSION_RADIUS = 1e-3   # match_spectra skips roots this close to an excluded point


class OracleConvergenceError(RuntimeError):
    """Mesh refinement moved an oracle root by more than the allowed budget."""


@dataclass(frozen=True)
class Root:
    lam: float
    residual: float
    multiplicity: int
    method: str
    flag: str = "ok"


@dataclass(frozen=True)
class SpectrumResult:
    roots: tuple
    excluded: tuple      # decoupled eigenvalues inside the window
    method: str
    window: tuple

    @property
    def values(self) -> np.ndarray:
        return np.array([r.lam for r in self.roots])


def _decoupled_in_window(g: MetricGraph, window) -> np.ndarray:
    """The distinct decoupled eigenvalues in a finite window of at most
    10**6 pole indices on all edges together: as many as one edge of their
    total length spans, the span being linear in the length."""
    a, b = window
    lo, hi = em._index_span(g.model, sum(g.finite_lengths), (a, b))
    if not hi - lo <= em._MAX_POLE_INDICES:
        raise em.EdgeModelError(f"window={window} is not finite or overflows the "
                                f"graph-wide pole index cap of {em._MAX_POLE_INDICES}")
    vals = []
    for e in g.edges:
        model = edge_model_for(g.model, e)
        vals.extend(em.decoupled_eigenvalues(model, e.length, window=(a, b)))
    out = []
    for v in sorted(vals):
        if not out or abs(v - out[-1]) > 1e-12 * max(1.0, abs(v)):
            out.append(float(v))
    return np.array(out)


def _checked_request(window, tol) -> tuple:
    """The bounds (a, b) of ``window``, checked to be finite with a < b,
    after checking that ``tol`` is finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and > 0")
    a, b = float(window[0]), float(window[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("window bounds must be finite")
    if not a < b:
        raise ValueError("window must satisfy a < b")
    return a, b


def krein_matrix(g: MetricGraph, coupling: VertexCoupling, lam, *,
                 _pairing: Optional[_CompiledPairing] = None) -> np.ndarray:
    """Secular matrix <(L - M(lambda)) bhat_j, bhat_i> over the global basis.

    This is the boundary pairing P of ``coupling._CompiledPairing`` at
    M = M(lambda), with the raw basis vectors b normalized to bhat =
    b / ||b||.  Hermitian for real lambda; raises PoleOfWeylError within
    1e-8 of a decoupled edge eigenvalue.

    The pairing has a compile step (independent of lambda) and a
    per-lambda step (gather the entries of M(lambda), weight them and
    subtract their segment sums: O(nnz) work), whose values on the sparse
    pattern of P are divided by ||b_i|| ||b_j||; the dense K is formed once,
    for the eigensolve.  Callers that evaluate many lambda hand their compiled
    pairing in ``_pairing``; otherwise the call compiles its own.
    """
    compiled = _pairing or _CompiledPairing(g, coupling)
    blocks = {eid: em.weyl(model, ell, lam, _pole_tol=_POLE_GUARD)
              for eid, model, ell in compiled.edges}
    return compiled.dense(compiled(blocks) / compiled.norm_products)


def _eigvalsh(k: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian matrix k, in real arithmetic
    when k has no imaginary part (delta couplings in both edge models)."""
    return np.linalg.eigvalsh(k if k.imag.any() else k.real)


def _brent_steps(a, b, fa, fb, *, atol=0.0):
    """Zero of f on [a, b], where fa = f(a) and fb = f(b) differ in sign, as
    a coroutine: it yields each lambda where it needs f, is sent f(lambda)
    there, and returns the zero.

    Brent's zeroin (Brent 1973, ch. 4): inverse quadratic or secant steps
    kept inside the sign-change bracket, with a bisection step whenever
    they would shrink it too slowly.  It stops when the bracket half-width
    is at most max(atol, 2e-16 * max(1, |lambda|)).
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = max(atol, 2e-16 * max(1.0, abs(b)))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = yield b
    return b


def _brent_zero(f, a, b, fa, fb):
    """``_brent_steps`` driven by calls of the scalar function f."""
    steps = _brent_steps(a, b, fa, fb)
    value = None
    while True:
        try:
            lam = steps.send(value)
        except StopIteration as stop:
            return stop.value
        value = f(lam)


def scan_spectrum(g: MetricGraph, coupling: VertexCoupling, window,
                  tol: float = 1e-8) -> SpectrumResult:
    """All eigenvalues in the window that are visible to the matching criterion.

    The window is subdivided at the decoupled edge eigenvalues; those points
    are reported in ``excluded`` with the flag "undetermined-by-matching"
    since the criterion does not apply there (the oracle route resolves
    them).  Within each pole-free cell the sorted eigenvalue branches of
    K(lambda) are strictly decreasing, so Brent's method finds the zero of
    each independently, to about two ulps.  ``tol`` is the merge radius
    only: branch zeros closer than max(100 tol, 1e-9 max(1, |lambda|))
    merge into one root, whose multiplicity is the number of branches that
    cross zero there (each kernel dimension of K at a root is one such
    crossing; a count of small |mu| would add false ones where K has
    entries of order 1/l_min).

    K is compiled once per call, each lambda is evaluated at most once (the
    eigenvalues of every evaluated lambda are kept per cell), and the
    eigensolve runs in real arithmetic when K is real.  Brent's zero is a
    point it evaluated, so each root's residual |det K| = |prod mu| is read
    off eigenvalues at hand.

    Raises ValueError unless the window bounds are finite with a < b and
    ``tol`` is finite and positive, and EdgeModelError, before any
    evaluation, when an edge has more than 10**6 pole indices in the window.
    """
    a, b = _checked_request(window, tol)
    if g.has_half_line and b > -_POLE_GUARD:
        raise ValueError("half-line graphs: window must stay below 0")
    poles = _decoupled_in_window(g, (a, b))

    cuts = [a] + [p for p in poles if a < p < b] + [b]
    roots = []
    compiled = _CompiledPairing(g, coupling)
    nbranch = len(compiled.basis.labels)
    usable_cells = 0
    for left, right in zip(cuts[:-1], cuts[1:]):
        pad = 10 * _POLE_GUARD * max(1.0, abs(left), abs(right))
        lo, hi = left + pad, right - pad
        if hi <= lo:
            continue
        usable_cells += 1
        seen = {}  # lambda -> eigenvalues of K(lambda), descending

        def fun(lam):
            if lam not in seen:
                seen[lam] = _eigvalsh(krein_matrix(g, coupling, lam, _pairing=compiled))[::-1]
            return seen[lam]

        flo, fhi = fun(lo), fun(hi)
        cell_roots = []
        for j in range(nbranch):
            if flo[j] > 0 >= fhi[j]:
                r = _brent_zero(lambda lam: fun(lam)[j], lo, hi, flo[j], fhi[j])
                cell_roots.append(r)
        cell_roots.sort()
        merged = []
        for r in cell_roots:
            if merged and abs(r - merged[-1][0]) < max(100 * tol, 1e-9 * max(1.0, abs(r))):
                merged[-1][1] += 1
            else:
                merged.append([r, 1])
        for r, mult in merged:
            roots.append(Root(r, float(np.prod(np.abs(seen[r]))), mult, "krein"))
    if usable_cells == 0:
        raise ValueError("window consists of pole neighborhoods only")
    excluded = tuple(float(p) for p in poles)
    return SpectrumResult(tuple(roots), excluded, "krein", (a, b))


# ----------------------------------------------------------------- oracle

# Bytes of oracle matrices assembled in place per block of grid samples.
_ORACLE_BLOCK_BYTES = 1 << 18
# RK4 steps per edge on the grid and in the first polish; roots are checked at twice it.
_ORACLE_MESH = 2000


def _transfer_stack(model, lengths: np.ndarray, lams, mesh: int) -> np.ndarray:
    """RK4 transfer matrices u(0) -> u(length), shape (E, n_lambda, 2, 2).

    The per-edge systems u' = A u use only the raw differential equations:
    (psi, psi') for the Laplacian and the real form (psi1, i*psi2) for the
    Dirac operator.  Both have zero diagonal, so A^2 = w I with
    w = A[0, 1] A[1, 0]: the RK4 step matrix, a polynomial in h A, and all
    its powers lie in span{I, A} and are carried as the pair (x, y) of
    x I + y A, elementwise over edges and lambda.  The step count is a power
    of two, so the step matrix is composed by repeated squaring,
    (x, y) -> (x^2 + w y^2, 2 x y), which reproduces sequential stepping;
    no closed-form trigonometry enters.
    """
    a01, a10 = model._system(np.asarray(lams, dtype=float))
    w = a01 * a10
    doublings = max(1, int(math.ceil(math.log2(mesh))))
    h = lengths[:, None] / (1 << doublings)
    hw = h * h * w
    x = 1 + hw / 2 + hw * hw / 24
    y = h * (1 + hw / 6)
    for _ in range(doublings):
        x, y = x * x + w * y * y, 2 * x * y
    t = np.empty(x.shape + (2, 2))
    t[..., 0, 0] = t[..., 1, 1] = x
    t[..., 0, 1] = y * a01
    t[..., 1, 0] = y * a10
    return t


class _CompiledOracle:
    """The oracle matrix A(lambda) of one problem as a fixed linear map of the
    edge transfer matrices T_e(lambda), compiled once per oracle call.

    The unknowns are the states u_e(0) at the edge sources, in columns
    2e, 2e+1 (edges in id order).  Each incidence coordinate is rotated by
    conj(phase), with the model's trace phases ``_phases`` (the delta
    couplings), which makes the delta-type conditions real: traces become
    psi1 values and fluxes _flux * sign * u_2 values.  Per vertex,
    the rows say that Gamma0 lies in the rotated coupling subspace
    (comp^H Gamma0 = 0) and that the block condition holds
    (unit^H Gamma1 = mat unit^H Gamma0).  A source endpoint has the
    constant traces (u_1, s u_2), a target endpoint (T[0] u, s T[1] u),
    with s = sign times ``_flux``, so

        A[:, 2e+j] = base[:, 2e+j] + U[:, e] T_e[0, j] + V[:, e] T_e[1, j].

    The constant part ``base`` is stored once as an n x n matrix, and U and V
    only at their nonzeros (row, e), with the flat positions row n + 2e + j
    of the entries they reach: A(lambda) is a copy of ``base`` and an O(nnz)
    scatter.  Whether A(lambda) is real is decided here, once (``real``).
    """

    def __init__(self, g: MetricGraph, coupling: VertexCoupling):
        if g.has_half_line:
            raise ValueError("oracle handles finite lengths only")
        edges = sorted(g.edges, key=lambda e: e.id)
        column = {e.id: k for k, e in enumerate(edges)}
        self.model = g.model
        self.lengths = np.array([e.length for e in edges])
        n, ne = 2 * len(edges), len(edges)
        base = np.zeros((n, ne, 2), dtype=complex)
        u = np.zeros((n, ne), dtype=complex)
        v = np.zeros((n, ne), dtype=complex)
        row = 0
        for block in _vertex_blocks(g, coupling)[1]:
            basis = _delta_phases(block.coords, g.model).conj()[:, None] * block.basis
            # Rotate out each column's leading phase, the matrix to match (the
            # operator stays): a coupling real up to column phases gives a real A.
            phase = basis[np.argmax(basis != 0, axis=0), np.arange(basis.shape[1])]
            phase = phase / np.abs(phase)
            basis, matrix = basis * phase.conj(), phase[:, None] * block.matrix * phase.conj()
            unit = basis / np.linalg.norm(basis, axis=0)
            comp = np.linalg.svd(basis, full_matrices=True)[0][:, basis.shape[1]:]
            # Coefficients of each incidence's Gamma0 and Gamma1 in the vertex rows.
            gamma0 = np.vstack([comp.conj().T, -matrix @ unit.conj().T])
            gamma1 = np.vstack([np.zeros((comp.shape[1], len(block.coords))), unit.conj().T])
            rows = slice(row, row + len(block.coords))
            for i, (eid, t) in enumerate(block.coords):
                k = column[eid]
                s = g.model._flux * (1 - 2 * t)  # sign +1 at t = 0, -1 at t = 1
                if t == 0:
                    base[rows, k, 0] += gamma0[:, i]
                    base[rows, k, 1] += s * gamma1[:, i]
                else:
                    u[rows, k] = gamma0[:, i]
                    v[rows, k] = s * gamma1[:, i]
            row += len(block.coords)
        # Real couplings give a real A(lambda) at real lambda: factorize it in
        # real arithmetic, with twice the matrices per block.
        self.real = not any(x.imag.any() for x in (base, u, v))
        if self.real:
            base, u, v = (x.real.copy() for x in (base, u, v))
        self.base = base.reshape(n, n)
        nz_row, self._edge = np.nonzero((u != 0) | (v != 0))
        self._u, self._v = u[nz_row, self._edge], v[nz_row, self._edge]
        self._pos = nz_row * n + 2 * self._edge + np.arange(2)[:, None]
        block_len = max(1, _ORACLE_BLOCK_BYTES // (u.dtype.itemsize * n * n))
        self._out = np.empty((block_len, n, n), dtype=u.dtype)
        # Transfers (32 bytes per edge and lambda) are computed per chunk of
        # whole blocks, within the same budget.
        self._chunk = block_len * max(1, _ORACLE_BLOCK_BYTES // (32 * ne * block_len))

    def _assemble(self, t: np.ndarray) -> np.ndarray:
        """A(lambda) in the shared buffer, from the transfer stack ``t`` of at
        most one block of lambda values."""
        out = self._out[:t.shape[1]]
        out[...] = self.base
        flat = out.reshape(len(out), -1)
        t = t[self._edge]  # the transfers of each nonzero (row, e) of U and V
        for j in (0, 1):
            flat[:, self._pos[j]] += self._u * t[:, :, 0, j].T + self._v * t[:, :, 1, j].T
        return out

    def matrices(self, lams, mesh: int) -> np.ndarray:
        """A(lambda) for at most one block of lambda values, in the shared buffer."""
        return self._assemble(_transfer_stack(self.model, self.lengths, lams, mesh))

    def evaluate(self, kind: str, lams, mesh: int) -> list:
        """For each lambda in ``lams``: det A(lambda) for kind "det" (real
        when ``real``), or the pair (sigma_min / sigma_max, singular values)
        of A(lambda) for kind "sigma".  One transfer pass per chunk of lambda
        values, and one assembly and one stacked LAPACK call per block."""
        values = []
        step = self._out.shape[0]
        for first in range(0, len(lams), self._chunk):
            t = _transfer_stack(self.model, self.lengths, lams[first:first + self._chunk], mesh)
            for start in range(0, t.shape[1], step):
                a = self._assemble(t[:, start:start + step])
                if kind == "det":
                    values.extend(np.linalg.det(a))
                else:
                    sv = np.linalg.svd(a, compute_uv=False)
                    values.extend(zip(sv[:, -1] / np.maximum(sv[:, 0], 1e-300), sv))
        return values

    def drive(self, tasks: list) -> list:
        """Run the coroutines ``tasks`` in lockstep; returns their results.

        A task yields requests ``(kind, lambda, mesh)`` and is sent the
        ``evaluate`` value of that kind at lambda; only sign brackets, which
        exist when A is real, ask for "det".  Each round answers all pending
        requests with one ``evaluate`` call per kind and mesh.  When tasks
        raise OracleConvergenceError, the error of the first of them is
        raised, as a loop over the tasks in order would raise it.
        """
        results = [None] * len(tasks)
        errors = {}
        answers = {i: None for i in range(len(tasks))}
        while answers:
            groups = {}
            for i, answer in answers.items():
                if errors and i > min(errors):
                    continue  # a task before it has already failed
                try:
                    kind, lam, mesh = tasks[i].send(answer)
                except StopIteration as stop:
                    results[i] = stop.value
                except OracleConvergenceError as exc:
                    errors[i] = exc
                else:
                    groups.setdefault((kind, mesh), []).append((i, lam))
            answers = {}
            for (kind, mesh), requests in groups.items():
                values = self.evaluate(kind, [lam for _, lam in requests], mesh)
                answers.update((i, v) for (i, _), v in zip(requests, values))
        if errors:
            raise errors[min(errors)]
        return results


def _grid_candidates(grid: np.ndarray, dets: np.ndarray, real: bool) -> list:
    """Brackets (lo, hi, kind) to polish, from det A on the sample grid.

    For a real A, every sign change between neighbouring samples ("sign"),
    then every strict local minimum of |det| that no sign bracket contains
    ("min").  An exact zero is a sign change against its left neighbour and
    counts as +1e-300 against its right one.  Otherwise, every strict local
    minimum of |det|.
    """
    if real:
        vals = dets.real
        held = vals[:-1].copy()
        held[held == 0.0] = 1e-300
        sign = np.flatnonzero(np.sign(held) != np.sign(vals[1:]))
        mags = np.abs(np.concatenate([held, vals[-1:]]))
    else:
        sign = np.array([], dtype=int)
        mags = np.abs(dets)
    minima = 1 + np.flatnonzero((mags[1:-1] < mags[:-2]) & (mags[1:-1] < mags[2:]))
    x = grid[minima, None]
    covered = ((grid[sign] <= x) & (x <= grid[sign + 1])).any(axis=1)
    return ([(grid[i], grid[i + 1], "sign") for i in sign]
            + [(grid[i - 1], grid[i + 1], "min") for i in minima[~covered]])


def _as_requests(steps, kind: str, mesh: int):
    """The coroutine ``steps``, which yields bare lambdas, with each of them
    turned into the request (kind, lambda, mesh)."""
    value = None
    while True:
        try:
            lam = steps.send(value)
        except StopIteration as stop:
            return stop.value
        value = yield kind, lam, mesh


def _oracle_refine(lo, hi, kind, window, mesh, tol):
    """Coroutine: one polish of the candidate bracket [lo, hi] at ``mesh``.

    A sign bracket is widened (at most five times, inside the window) until
    det changes sign, then polished by Brent to a bracket width of
    max(1e-3 tol, 4e-16 max(1, |lambda|)); a "min" bracket, or a sign bracket
    that cannot be restored, is refined by golden-section search on the
    singular-value ratio.
    """
    a, b = window
    if kind == "sign":
        fa = yield "det", lo, mesh
        fb = yield "det", hi, mesh
        attempts = 0
        while np.sign(fa) == np.sign(fb) and attempts < 5:
            span = hi - lo
            lo, hi = max(a, lo - span), min(b, hi + span)
            fa = yield "det", lo, mesh
            fb = yield "det", hi, mesh
            attempts += 1
        if np.sign(fa) != np.sign(fb):
            steps = _brent_steps(lo, hi, fa, fb, atol=0.5e-3 * tol)
            return (yield from _as_requests(steps, "det", mesh))
        # degenerate bracket: fall through to minimization
    # golden-section minimization of the smallest singular-value ratio
    phi = (math.sqrt(5) - 1) / 2
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1 = (yield "sigma", x1, mesh)[0]
    f2 = (yield "sigma", x2, mesh)[0]
    for _ in range(120):
        if hi - lo < max(tol * 1e-3, 4e-16 * max(1.0, abs(lo))):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = (yield "sigma", x1, mesh)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = (yield "sigma", x2, mesh)[0]
    return 0.5 * (lo + hi)


def _oracle_root(lo, hi, kind, window, mesh, tol):
    """Coroutine for ``_CompiledOracle.drive``: one grid candidate polished
    at ``mesh``, checked for a numerical kernel, polished again at twice
    the mesh, and returned as a Root (None for a spurious |det| dip)."""
    a, b = window
    r = yield from _oracle_refine(lo, hi, kind, window, mesh, tol)
    ratio, _ = yield "sigma", r, mesh
    if ratio > 1e-5:
        return None  # spurious |det| dip, matrix not numerically singular
    width = 10 * max(tol, 1e-9 * max(1.0, abs(r)))
    r2 = yield from _oracle_refine(max(a, r - width), min(b, r + width),
                                   kind, window, 2 * mesh, tol)
    if abs(r2 - r) > 10 * max(tol, tol * abs(r)):
        raise OracleConvergenceError(
            f"root at {r} moved by {abs(r2 - r):.3e} under mesh doubling"
        )
    ratio2, sv2 = yield "sigma", r2, 2 * mesh
    mult = int(np.sum(sv2 < max(_KERNEL_CUTOFF, 10 * ratio2) * max(sv2[0], 1e-300)))
    return Root(float(r2), float(ratio2), max(1, mult), "oracle")


def oracle_eigenvalues(g: MetricGraph, coupling: VertexCoupling, window,
                       tol: float = 1e-8, samples: int = 600) -> SpectrumResult:
    """Eigenvalues in the window from the RK4 transfer-matrix determinant.

    The oracle matrix is compiled once per call (``_CompiledOracle``), so
    each (lambda, mesh) pair costs one x I + y A powering per edge, an
    O(nnz) scatter onto the constant part of A and one LU; when the
    coupling data are real, A is real and is factorized in real
    arithmetic.  Sign changes of the (real) determinant on the
    ``samples``-point grid, at ``_ORACLE_MESH`` RK4 steps per edge, are
    polished by Brent's method to a bracket width of
    max(1e-3 tol, 4e-16 max(1, |lambda|)); local minima of |det| that
    dip to a numerical kernel (even-multiplicity roots) are refined by
    golden-section search on the smallest singular value.  Each root is
    re-polished at twice the mesh; movement beyond 10 * tol raises
    OracleConvergenceError.  All candidates are polished in lockstep: each
    round evaluates the next lambda of every candidate with one stacked
    determinant or singular-value call per block.

    Raises ValueError unless the window bounds are finite with a < b,
    ``tol`` is finite and positive and ``samples`` is at least 2, and
    EdgeModelError, before any evaluation, when an edge has more than 10**6
    pole indices in the window.
    """
    a, b = _checked_request(window, tol)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    poles = _decoupled_in_window(g, (a, b))
    oracle = _CompiledOracle(g, coupling)
    grid = np.linspace(a, b, samples)
    dets = np.array(oracle.evaluate("det", grid, _ORACLE_MESH))
    tasks = [_oracle_root(lo, hi, kind, (a, b), _ORACLE_MESH, tol)
             for lo, hi, kind in _grid_candidates(grid, dets, oracle.real)]
    roots = [r for r in oracle.drive(tasks) if r is not None]

    merged = []
    for r in sorted(roots, key=lambda r: r.lam):
        if merged and abs(r.lam - merged[-1].lam) < max(100 * tol, 1e-9 * max(1.0, abs(r.lam))):
            if r.residual < merged[-1].residual:
                merged[-1] = r
            continue
        merged.append(r)
    flagged = []
    for r in merged:
        near_pole = poles.size and np.min(np.abs(poles - r.lam)) < 1e-6 * max(1.0, abs(r.lam))
        flagged.append(Root(r.lam, r.residual, r.multiplicity, "oracle",
                            "sigma_a0" if near_pole else "ok"))
    return SpectrumResult(tuple(flagged), tuple(float(p) for p in poles),
                          "oracle", (a, b))


def decoupled_ground_state(g: MetricGraph) -> float:
    """Bottom of the decoupled (Dirichlet) Laplacian spectrum: min (pi/length)^2
    over finite edges, capped at 0 when half-lines are present."""
    ground = min([(math.pi / l) ** 2 for l in g.finite_lengths], default=math.inf)
    return min(ground, 0.0) if g.has_half_line else ground


def _psd(evs: np.ndarray) -> bool:
    """Ascending eigenvalues ``evs`` of a positive semi-definite matrix, up
    to -1e-10 relative to the largest |eigenvalue|."""
    return bool(evs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(evs)))))


def lower_bound_certificate(g: MetricGraph, coupling: VertexCoupling) -> Optional[float]:
    """Largest lambda0 below the decoupled ground state where
    L - P M(lambda0) P is positive semi-definite; None when no point
    qualifies.  Models ``bounded_below`` only (the decoupled operator is the
    semi-bounded soft-minimum extension there); such a lambda0 is a sound
    lower bound for the whole spectrum.  The first PSD point of a fixed
    descending grid is tightened by bisection against the last non-PSD one.
    """
    if not g.model.bounded_below:
        return None
    ground = decoupled_ground_state(g)
    compiled = _CompiledPairing(g, coupling)
    top = ground - max(1e-6, 1e-9 * abs(ground))
    grid = [top - (2.0 ** k - 1.0) * 1e-3 for k in range(40)]
    grid = [x for x in grid if x > ground - 1e7]

    def psd_at(lam0):
        try:
            return _psd(_eigvalsh(krein_matrix(g, coupling, lam0, _pairing=compiled)))
        except em.EdgeModelError:
            return None

    best = None
    prev_non_psd = None
    for lam0 in grid:
        verdict = psd_at(lam0)
        if verdict is None:
            continue
        if verdict:
            best = float(lam0)
            break
        prev_non_psd = float(lam0)
    if best is None:
        return None
    if prev_non_psd is not None:
        # Tighten upward by bisection; keep only PSD-verified points.
        lo, hi = best, prev_non_psd
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if hi - lo < 1e-9 * max(1.0, abs(mid)):
                break
            if psd_at(mid):
                lo = mid
            else:
                hi = mid
        best = lo
    return best


def match_spectra(a_vals, b_vals, exclude=(), rtol: float = 1e-6):
    """Pair two sorted root lists; returns (pairs, only_a, only_b).

    Roots within ``_EXCLUSION_RADIUS`` of an excluded point are skipped on
    both sides (the matching criterion is silent there).
    """
    exclude = np.asarray(list(exclude), dtype=float)

    def keep(x):
        return not (exclude.size and np.min(np.abs(exclude - x)) < _EXCLUSION_RADIUS)

    a_vals = [x for x in a_vals if keep(x)]
    b_vals = [x for x in b_vals if keep(x)]
    pairs, only_a, only_b = [], [], list(b_vals)
    for x in a_vals:
        if only_b:
            j = int(np.argmin(np.abs(np.array(only_b) - x)))
            y = only_b[j]
            if abs(x - y) <= rtol * max(1.0, abs(x), abs(y)):
                pairs.append((x, y))
                only_b.pop(j)
                continue
        only_a.append(x)
    return pairs, only_a, only_b


def spectrum_csv(results) -> str:
    """CSV rows ``method,lambda,residual,multiplicity,flag`` for one or more
    spectrum results, sorted by (method, lambda); deterministic output."""
    if isinstance(results, SpectrumResult):
        results = [results]
    rows = []
    for res in results:
        for r in res.roots:
            rows.append((r.method, r.lam, r.residual, r.multiplicity, r.flag))
        for p in res.excluded:
            if res.method == "krein":
                rows.append((res.method, p, math.nan, 0, "undetermined-by-matching"))
    rows.sort(key=lambda t: (t[0], t[1]))
    lines = ["method,lambda,residual,multiplicity,flag"]
    for method, lam, residual, mult, flag in rows:
        lines.append(
            f"{method},{float(lam)!r},{float(residual)!r},{int(mult)},{flag}"
        )
    return "\n".join(lines) + "\n"
