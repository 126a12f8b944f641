"""Eigenvalue computation on finite graphs, by two independent routes.

Route 1 (matching / secular matrix): lambda is an eigenvalue of the
coupled operator, for lambda outside the decoupled edge spectra, exactly
when the Hermitian matrix

    K(lambda)[i, j] = <(L - M(lambda)) bhat_j, bhat_i>

over the orthonormalized global basis is singular.  Since every edge
response matrix has positive-definite derivative on real gaps, K is
strictly decreasing in lambda between consecutive poles, so the number
n_minus of its negative eigenvalues rises by the multiplicity of each
root: count bisection isolates the roots of a pole-free cell and Brent's
method on det K polishes them, even-multiplicity roots, which a bare
determinant sign scan cannot see, included.  A scan call runs in lockstep
rounds, each counting the lambda values that all its cells or brackets
need next in one batch: the cell ends, then one bisection level over all
cells, then one step of every bracket's polish.  Under a delta coupling
on a tree the counts are O(V) pivots of the unnormalized K, a weighted
Laplacian plus a potential eliminated leaf to root, with one array pass
of edge weights per round; elsewhere a scan compiles all of K but its
edge term once, and each lambda costs one edge response per edge, an
O(nnz) scatter-add and one eigensolve, in real arithmetic when K is real
(delta couplings in both edge models).

Route 2 (oracle): per edge, the raw first-order ODE system is integrated
by classical RK4 to build transfer matrices; the vertex conditions
(trace data in the coupling subspace plus the Hermitian-block flux
condition) are assembled into one global matrix whose determinant
vanishes at eigenvalues.  No closed-form trigonometry enters, so this
route is algorithmically independent of route 1 and is also valid at
points embedded in the decoupled spectra, where the matching criterion
is silent.  The vertex conditions are compiled once per call into a fixed
linear map from the transfer matrices to the global matrix (real when the
coupling data are real, so that LU runs in real arithmetic), its rows by
vertex in sorted order and its columns by edge in graph order.  Both edge
systems have zero diagonal, so each RK4 transfer matrix is a pair (x, y)
of x I + y A, powered elementwise over all edges and one chunk of lambda
values at a time.  On a forest the grid's determinants come from one
leaf-to-root elimination, vectorized over the chunk and the vertices of
one height and front shape, with no n x n matrix; otherwise, and in
every polish round, each block of matrices is a copy of the constant part
and an O(nnz) scatter of the transfer entries, factorized by LAPACK.
Sign changes of the determinant are polished by the same Brent zeroin as
route 1, a coroutine: the oracle polishes all its candidates in lockstep
rounds on the scan's driver (``_lockstep``), with one stacked determinant
or singular-value call per round, kind, mesh and block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import edges as em
from .coupling import VertexCoupling, _CompiledPairing, _delta_phases, _vertex_blocks
from .graphs import MetricGraph

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
_TINY = float(np.finfo(float).tiny)
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
    10**6 pole indices on all edges together (as many as one edge of their
    total length spans, the span being linear in the length), listed in one
    pass over the finite edges (``edges._window_poles``).  A pole within
    1e-12 max(1, |p|) of the last one kept is merged into it."""
    lengths = g._index.lengths
    lo, hi = em._index_span(g.model, sum(lengths.tolist()), window)
    if not hi - lo <= em._MAX_POLE_INDICES:
        raise em.EdgeModelError(f"window={window} is not finite or overflows the "
                                f"graph-wide pole index cap of {em._MAX_POLE_INDICES}")
    poles = em._window_poles(g.model, lengths, window)
    tol = 1e-12 * np.maximum(1.0, np.abs(poles))
    keep = np.ones(poles.size, dtype=bool)
    last = None
    # A pole further than tol from the one before it is kept; the others are
    # compared with the last pole kept, in order.
    for i in (np.flatnonzero(np.diff(poles) <= tol[1:]) + 1).tolist():
        if keep[i - 1]:
            last = poles[i - 1]
        keep[i] = abs(poles[i] - last) > tol[i]
    return poles[keep]


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


def _relay(steps, ask, read):
    """The coroutine ``steps`` with each lambda it yields turned into the
    request ``ask(lambda)`` and each value sent back into ``read(value)``."""
    value = None
    while True:
        try:
            lam = steps.send(value)
        except StopIteration as stop:
            return stop.value
        value = read((yield ask(lam)))


def _lockstep(tasks: list, answer) -> list:
    """Run the coroutines ``tasks`` in lockstep; returns their results.

    Each round sends every running task the value of its last request (None
    at first) and collects the next requests, which ``answer`` maps, as one
    list in task order, to the list of their values; a round without
    requests ends the run.  When tasks raise, the error of the first of
    them is raised, as a loop over the tasks in order would raise it.
    """
    results = [None] * len(tasks)
    errors = {}
    answers = dict.fromkeys(range(len(tasks)))
    while answers:
        asked, requests = [], []
        for i, value in answers.items():
            if errors and i > min(errors):
                continue  # a task before it has already failed
            try:
                request = tasks[i].send(value)
            except StopIteration as stop:
                results[i] = stop.value
            except Exception as exc:
                errors[i] = exc
            else:
                asked.append(i)
                requests.append(request)
        answers = dict(zip(asked, answer(requests))) if requests else {}
    if errors:
        raise errors[min(errors)]
    return results


def _tree_pivots(g: MetricGraph, coupling: VertexCoupling, compiled: _CompiledPairing):
    """The pivots at real lambda of a delta coupling's P = N K N (N the basis
    norms) if the finite edges form a tree (or forest), else None.  P is the
    Laplacian of the weights b_e of ``edges._delta_weights`` plus the
    potential c_v = alpha_v - sum_e t_e (+ sqrt(-lambda), -M, per half-line);
    leaf-to-root elimination gives d_v = b_parent + s_v, with s_v = c_v +
    sum over children of b s / (b + s) (Grassmann-Taksar-Heyman 1985): O(V),
    without K's cancellation of entries of order 1/l_min.  An exact 0 pivot
    becomes tiny max(1, |b|)^2, so a root at lambda counts as lying above it.

    The pivots are a function from a list of m lambda values to an (m, V)
    array: one ``_delta_weights`` call and one ``bincount`` per edge end
    for all of them (each vertex's sum in edge order, as for one lambda),
    then the elimination, in Python floats, one lambda at a time."""
    if coupling.flavor != "delta":
        return None
    index = g._index  # vertex positions: those of the delta basis
    steps = index.peeling
    if steps is None:
        return None
    src, dst, n = index.source, index.target, len(index.vertices)
    lengths = index.lengths
    half = np.bincount(index.half, minlength=n)[:, None]
    alpha = compiled.p0[compiled.rows == compiled.cols].real[:, None]  # P's vertex term
    if not index.half.size:
        alpha = alpha + 0.0  # the half-line term, 0 * sqrt(max(0, -lambda)), added

    @functools.lru_cache(maxsize=None)
    def flat(m):  # the (vertex, lambda) positions of each edge end's (edge, lambda)
        return tuple((ends[:, None] * m + np.arange(m)).ravel() for ends in (src, dst))

    def pivots(lams: list) -> np.ndarray:
        m = len(lams)
        b, t = em._delta_weights(g.model, lengths, np.array(lams, dtype=float))
        c = alpha
        if index.half.size:
            c = c + half * np.array([math.sqrt(max(0.0, -lam)) for lam in lams])
        at_src, at_dst = flat(m)
        t = t.ravel()
        c = c - (np.bincount(at_src, t, n * m) + np.bincount(at_dst, t, n * m)).reshape(n, m)
        out = []
        for weight, s in zip(b.T.tolist(), c.T.tolist()):
            weight.append(0.0)
            s.append(0.0)
            row = []
            append = row.append
            for v, p, k in steps:
                bv, sv = weight[k], s[v]
                d = bv + sv
                if d == 0.0:
                    d = _TINY * max(1.0, max(map(abs, weight))) ** 2
                append(d)
                s[p] += bv * sv / d
            out.append(row)
        return np.array(out)
    return pivots


class _Inertia:
    """(n_minus, sign det, log |det|) of K at real lambda: from ``_tree_pivots``
    if any, else from K's eigenvalues, an exact 0 counting as positive.  K
    decreases between poles: n_minus(hi) - n_minus(lo) roots lie in [lo, hi).
    ``many`` counts a list of lambda values together, and a call counts one.
    ``eigenvalues`` at a root give its residual: those at hand on the dense
    path (``seen``, kept for the object's life: one scan call), one
    ``krein_matrix`` on the tree path."""

    def __init__(self, g: MetricGraph, coupling: VertexCoupling, compiled: _CompiledPairing):
        self.problem = g, coupling, compiled
        self.tree = _tree_pivots(g, coupling, compiled)
        self.seen = {}

    def eigenvalues(self, lam: float) -> np.ndarray:
        if lam in self.seen:
            return self.seen[lam]
        g, coupling, compiled = self.problem
        return _eigvalsh(krein_matrix(g, coupling, lam, _pairing=compiled))

    def many(self, lams: list) -> list:
        if self.tree is None:
            mu = np.array([self.eigenvalues(lam) for lam in lams])
            self.seen.update(zip(lams, mu))
            pivots = np.where(mu == 0.0, _TINY, mu)
        else:
            pivots = self.tree(lams)
        negs = np.add.reduce(pivots < 0.0, 1, np.intp).tolist()
        logs = np.add.reduce(np.log(np.abs(pivots)), axis=1).tolist()
        return [(neg, -1.0 if neg % 2 else 1.0, log) for neg, log in zip(negs, logs)]

    def __call__(self, lam: float) -> tuple:
        return self.many([lam])[0]


def _isolated(inertia, cells, tol) -> list:
    """(lo, hi, inertia at lo, at hi) of the root brackets in the cells
    [lo, hi), sorted by lo: count bisection, breadth first over all cells
    with one ``inertia.many`` per level, splits a bracket with more than
    one root down to the merge radius, a count off the monotone order
    clamped between its neighbours'."""
    ends = iter(inertia.many([x for cell in cells for x in cell]))
    pending = [(lo, hi, next(ends), next(ends)) for lo, hi in cells]
    brackets = []
    while pending:
        split = []
        for lo, hi, flo, fhi in pending:
            if fhi[0] - flo[0] == 1 or (fhi[0] > flo[0] and
                                        hi - lo <= max(100 * tol, 1e-9 * max(1.0, abs(hi)))):
                brackets.append((lo, hi, flo, fhi))
            elif fhi[0] > flo[0]:
                split.append((lo, hi, flo, fhi))
        mids = [0.5 * (lo + hi) for lo, hi, _, _ in split]
        pending = []
        for (lo, hi, flo, fhi), mid, fmid in zip(split, mids, inertia.many(mids) if mids else []):
            fmid = (min(max(fmid[0], flo[0]), fhi[0]),) + fmid[1:]
            pending += [(lo, mid, flo, fmid), (mid, hi, fmid, fhi)]
    return sorted(brackets, key=lambda bracket: bracket[0])


def _bracket_root(lo, hi, flo, fhi):
    """Coroutine: the root of one bracket, yielding each lambda where it needs
    the inertia.  Brent on det / |det(lo)| (its log clamped to +-700) if the
    count jumps by an odd number, else, det keeping its sign, count
    bisection to Brent's width or until the roots part."""
    if (fhi[0] - flo[0]) % 2:
        def scaled(f):
            return f[1] * math.exp(max(-700.0, min(700.0, f[2] - flo[2])))
        steps = _brent_steps(lo, hi, flo[1], scaled(fhi))
        return (yield from _relay(steps, lambda lam: lam, scaled))
    while hi - lo > 4e-16 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        n = (yield mid)[0]
        if flo[0] < n < fhi[0]:
            break
        lo, hi = (mid, hi) if n <= flo[0] else (lo, mid)
    return 0.5 * (lo + hi)


def scan_spectrum(g: MetricGraph, coupling: VertexCoupling, window,
                  tol: float = 1e-8) -> SpectrumResult:
    """All eigenvalues in [a, b) that are visible to the matching criterion.

    The window is subdivided at the decoupled edge eigenvalues; those points
    are reported in ``excluded`` with the flag "undetermined-by-matching"
    since the criterion does not apply there (the oracle route resolves
    them).  A neighbourhood of 1e-7 max(1, |p|) is left out around each
    pole p, in the window or next to an end; an end without a pole nearby
    is scanned up to itself.  A pole-free cell holds the n_minus(hi) -
    n_minus(lo) roots in [lo, hi) (``_Inertia``), so adjacent windows never
    report one root twice.  Count bisection isolates them down to the merge
    radius max(100 tol, 1e-9 max(1, |lambda|)), which is all that ``tol``
    sets: closer roots are one root.  A bracket whose count jumps by an odd
    number is polished by Brent on det K, one whose count jumps by an even
    number by count bisection, both to about two ulps; the jump, the
    number of kernel dimensions of K there, is the multiplicity.

    K is compiled once per call.  The brackets of all cells are isolated
    and polished together, in lockstep rounds that count every lambda the
    round needs in one ``_Inertia.many`` call; each bracket takes the steps
    it would take alone.  On a delta coupling whose finite edges form a
    tree the counts are O(V) pivots, and each root costs one
    ``krein_matrix`` and eigensolve for its residual |det K| = |prod mu|;
    elsewhere every count is an eigensolve of K, in real arithmetic when K
    is real, and the residual is read off the eigenvalues at hand, kept
    for the call.

    Raises ValueError unless the window bounds are finite with a < b and
    ``tol`` is finite and positive, and EdgeModelError, before any
    evaluation, when the window spans more than 10**6 pole indices on all
    edges together.
    """
    a, b = _checked_request(window, tol)
    if g.has_half_line and b > -_POLE_GUARD:
        raise ValueError("half-line graphs: window must stay below 0")

    def pad(x):  # half-width of the pole neighbourhood left out at x
        return 10 * _POLE_GUARD * max(1.0, abs(x))

    near = _decoupled_in_window(g, (a - pad(a), b + pad(b)))  # with the poles next to it
    poles = near[(a <= near) & (near <= b)]
    cuts = [a] + [p for p in poles.tolist() if a < p < b] + [b]
    pads = [pad(x) if near.size and np.min(np.abs(near - x)) <= pad(x) else 0.0 for x in cuts]
    cells = [(left + left_pad, right - right_pad)
             for left, right, left_pad, right_pad in zip(cuts, cuts[1:], pads, pads[1:])]
    cells = [(lo, hi) for lo, hi in cells if lo < hi]
    if not cells:
        raise ValueError("window consists of pole neighborhoods only")
    inertia = _Inertia(g, coupling, _CompiledPairing(g, coupling))
    brackets = _isolated(inertia, cells, tol)
    found = _lockstep([_bracket_root(*bracket) for bracket in brackets], inertia.many)
    roots = tuple(Root(r, float(np.prod(np.abs(inertia.eigenvalues(r)))), fhi[0] - flo[0], "krein")
                  for r, (_, _, flo, fhi) in zip(found, brackets))
    return SpectrumResult(roots, tuple(poles.tolist()), "krein", (a, b))


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
    t = np.empty((2, len(x), 2, x.shape[1])).transpose(1, 3, 0, 2)  # the tree pass's rows (a, e, j)
    t[..., 0, 0] = t[..., 1, 1] = x
    t[..., 0, 1] = y * a01
    t[..., 1, 0] = y * a10
    return t


def _product(x: np.ndarray) -> tuple:
    """The product over the first axis of ``x`` as (mantissa, exponent):
    neighbouring rows multiply in pairs (an odd last row joins the last
    pair), and the pairs again.  Every eighth round each entry is scaled
    by the power of two 2**e that brings its larger part into [0.5, 1), e
    going to the exponent (exact)."""
    expo = np.zeros(x.shape[1:], dtype=np.intc)  # as np.frexp gives them
    for rounds in itertools.count():
        if rounds % 8 == 0 or len(x) == 1:
            if np.iscomplexobj(x):
                e = np.frexp(np.maximum(np.abs(x.real), np.abs(x.imag)))[1]
                x = x * np.ldexp(1.0, -e)
            else:
                e = np.frexp(x, out=(x, np.empty(x.shape, dtype=np.intc)))[1]
            expo += e.sum(axis=0, dtype=np.intc)
        if len(x) == 1:
            return x[0], expo
        pairs = x[0:len(x) - 1:2] * x[1::2]
        if len(x) % 2:
            pairs[-1] = pairs[-1] * x[-1]  # out of place, as in _tree_dets
        x = pairs


# Bytes of the tree pass's working set per chunk of grid samples.
_GRID_BYTES = 7 << 17


class _CompiledOracle:
    """The oracle matrix A(lambda) of one problem as a fixed linear map of the
    edge transfer matrices T_e(lambda), compiled once per oracle call.

    Rows go by vertex in the graph index's sorted order, each vertex's in
    its block's order, and the unknowns, the states u_e(0) at the edge
    sources, are columns 2e, 2e+1 for the edge at position e of ``g.edges``
    (``lengths``).  Each incidence coordinate is rotated by conj(phase),
    with the model's trace phases ``_phases`` (the delta couplings), which
    makes the delta-type conditions real: traces become psi1 values and
    fluxes _flux * sign * u_2 values.  Per vertex, the rows say that Gamma0
    lies in the rotated coupling subspace (comp^H Gamma0 = 0) and that the
    block condition holds (unit^H Gamma1 = mat unit^H Gamma0).  A source
    endpoint has the constant traces (u_1, s u_2), a target endpoint
    (T[0] u, s T[1] u), with s = sign times ``_flux``, so

        A[:, 2e+j] = base[:, 2e+j] + U[:, e] T_e[0, j] + V[:, e] T_e[1, j].

    The compile lists one entry per row and incidence of each vertex, its
    end t and its coefficients c0 and c1 of Gamma0 and s Gamma1, sorted by
    row E + e, and reads the rest from that list.  The constant part
    ``base`` is stored once as an n x n matrix, and U and V only at their
    nonzeros (row, e), with the flat positions row n + 2e + j of the entries
    they reach: A(lambda) is a copy of ``base`` and an O(nnz) scatter.
    Whether A(lambda) is real is decided here, once (``real``).
    On a forest, a vertex's rows touch only its edges' columns, and A
    eliminates leaf to root without fill outside these vertex fronts
    (Parter 1961; Liu 1992), which the compile lays out (``_plan_fronts``).
    """

    def __init__(self, g: MetricGraph, coupling: VertexCoupling):
        if g.has_half_line:
            raise ValueError("oracle handles finite lengths only")
        blocks = _vertex_blocks(g, coupling)[1]
        self.model, self.lengths = g.model, g._index.lengths
        column = {e.id: k for k, e in enumerate(g.edges)}
        n, ne = 2 * len(column), len(column)
        first_row = np.cumsum([0] + [len(block.coords) for block in blocks])
        shapes, entries = {}, []
        for p, block in enumerate(blocks):
            shapes.setdefault(block.basis.shape, []).append(p)
        for (deg, dim), same in shapes.items():  # one stacked pass per basis shape
            ends = np.array([[t for _, t in blocks[p].coords] for p in same])
            cols = np.array([[column[eid] for eid, _ in blocks[p].coords] for p in same])
            basis = (_delta_phases(ends, g.model).conj()[:, :, None]
                     * np.array([blocks[p].basis for p in same]))
            # Rotate out each column's leading phase, the matrix to match (the
            # operator stays): a coupling real up to column phases gives a real A.
            phase = np.take_along_axis(basis, np.argmax(basis != 0, axis=1)[:, None], 1)
            phase = phase / np.abs(phase)
            matrix = np.array([blocks[p].matrix for p in same])
            basis, matrix = basis * phase.conj(), phase.transpose(0, 2, 1) * matrix * phase.conj()
            unit = basis / np.linalg.norm(basis, axis=1, keepdims=True)
            unit_h = unit.conj().transpose(0, 2, 1)
            comp = np.linalg.svd(basis, full_matrices=True)[0][:, :, dim:]
            # Coefficients of each incidence's Gamma0 and Gamma1 in the vertex rows.
            gamma0 = np.concatenate([comp.conj().transpose(0, 2, 1), -matrix @ unit_h], axis=1)
            gamma1 = np.concatenate([np.zeros((len(same), deg - dim, deg)), unit_h], axis=1)
            flux = g.model._flux * (1 - 2 * ends)  # sign +1 at t = 0, -1 at t = 1
            # One entry per row and incidence of each vertex: row, edge, end, c0, c1.
            rows = first_row[same][:, None, None] + np.arange(deg)[:, None]
            entries.append([x.ravel() for x in np.broadcast_arrays(
                rows, cols[:, None], ends[:, None], gamma0, flux[:, None] * gamma1)])
        row, edge, end, c0, c1 = map(np.concatenate, zip(*entries))
        order = np.argsort(row * ne + edge, kind="stable")
        row, edge, end, coef = row[order], edge[order], end[order], np.stack([c0, c1])[:, order]
        # Real couplings give a real A(lambda) at real lambda: factorize it in
        # real arithmetic, with twice the matrices per block.
        self.real = not coef.imag.any()
        if self.real:
            coef = coef.real
        j = np.arange(2)[:, None]
        source = end == 0
        base = np.zeros((n, n), dtype=coef.dtype)
        base[row[source], 2 * edge[source] + j] = 0 + coef[:, source]  # +0.0 for -0.0
        self._plan = None
        if g._index.peeling is not None:
            self._plan_fronts(g, first_row, row * ne + edge, end, coef, base)
        self.base = base
        target = (end == 1) & (coef != 0).any(axis=0)
        self._edge, (self._u, self._v) = edge[target], coef[:, target]
        self._pos = row[target] * n + 2 * self._edge + j
        block_len = max(1, _ORACLE_BLOCK_BYTES // (coef.itemsize * n * n))
        self._out = np.empty((block_len, n, n), dtype=coef.dtype)
        # Transfers (32 bytes per edge and lambda) are computed per chunk of
        # whole blocks, within the same budget.
        self._chunk = block_len * max(1, _ORACLE_BLOCK_BYTES // (32 * ne * block_len))

    def _plan_fronts(self, g, first_row, key, end, coef, base):
        """The tree pass's ``_plan``, by the leaf-to-root ``peeling``: the
        groups of vertices of one height (1 + the highest child's), child
        count c and rootness, lowest first, as (c, root, size s, child edges
        (c, s), parent edges, front).  A front has c + 1 rows (c at a root)
        on the child edges', then the parent edge's columns: per entry (row,
        edge, j, vertex) its coefficients of 1 (from ``base``), T_e[0, j] and
        T_e[1, j] (the compile's entries, by ``key`` = row E + edge, sorted,
        with their ``end`` t and coefficients ``coef``), and per (edge, j,
        vertex) the row 2e + j of a transfer stack (a, e, j).  ``_sign`` is
        that of the order without swaps: row k takes child edge k's column
        2e + 1, the last row 2e."""
        index = g._index
        count, ne = len(index.vertices), len(index.lengths)
        children, parent, height = [[] for _ in range(count)], [None] * count, [0] * count
        for w, p, k in index.peeling:
            if p < count:
                children[p].append(k)
                parent[w] = k
                height[p] = max(height[p], height[w] + 1)
        groups = {}
        for w in range(count):
            groups.setdefault((height[w], len(children[w]), parent[w] is None), []).append(w)
        reference, j = np.empty(2 * ne, dtype=np.intp), np.arange(2)[:, None]
        self._plan, largest = [], 0
        for (_, c, root), same in sorted(groups.items()):
            rows = np.arange(c + 1 - root)[:, None] + [first_row[w] for w in same]
            kids = np.array([children[w] for w in same], dtype=np.intp).reshape(len(same), c).T
            up = None if root else np.array([parent[w] for w in same])
            e = kids if root else np.vstack([kids, up])
            entry = np.searchsorted(key, rows[:, None] * ne + e)  # (row, edge, vertex)
            cu, cv = np.where(end[entry] == 1, coef[:, entry], 0)[:, :, :, None, :, None]
            at = 2 * e[:, None] + j
            front = (base[rows[:, None, None], at][..., None], cu, cv, at)
            self._plan.append((c, root, len(same), kids, up, front))
            largest = max(largest, front[0].size)
            reference[rows[:c]] = 2 * kids + 1
            if not root:
                reference[rows[c]] = 2 * up
        self._sign, reference = 1.0, reference.tolist()
        for i in range(len(reference)):  # one transposition, one sign change
            while reference[i] != i:
                k = reference[i]
                reference[i], reference[k], self._sign = reference[k], k, -self._sign
        # Per lambda: transfers, fold weights, pivots, the largest front and its temporaries.
        per_lambda = 32 * ne + coef.itemsize * (4 * ne + 4 * largest)
        self._grid_chunk = max(1, _GRID_BYTES // per_lambda)

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

    def _tree_dets(self, t: np.ndarray) -> np.ndarray:
        """det A(lambda) for every lambda of the transfer stack ``t``, by one
        leaf-to-root pass over the groups of ``_plan``, vectorized over lambda
        and a group's vertices.  A vertex eliminates its child edges' folded
        columns by partial pivoting among its rows (the first largest entry,
        by |re| + |im| when complex, as in ``getrf``; a swap negates the row
        that moves down), then its last row (a, b) the larger of its parent
        edge's columns, the pivot s, folding them into (a col 2 - b col 1) / s:
        col 2 - (b / a) col 1, or -(col 1 - (a / b) col 2) for the swap.  det
        is the pivots' product times ``_sign``; a zero pivot divides nothing."""
        m = t.shape[1]
        size = np.abs if self.real else (lambda x: np.abs(x.real) + np.abs(x.imag))
        rows = t.transpose(2, 0, 3, 1).reshape(2, -1, m)  # T_e[a, j] in rows[a, 2e + j]
        fold = np.empty((2, len(self.lengths), m), dtype=self.base.dtype)
        pivots, done = np.empty((2 * len(self.lengths), m), dtype=self.base.dtype), 0
        for c, root, group, kids, up, (coef, cu, cv, at) in self._plan:
            d = len(coef)
            front = (coef + (cu * rows[0, at] + cv * rows[1, at])).reshape(d, -1, 2, group * m)
            out, done = pivots[done:done + d * group].reshape(d, -1), done + d * group
            if c:  # child k's folded column (out of place: numpy then rounds alike for any m)
                terms = front[:, :c] * fold[:, kids].reshape(2, c, group * m).transpose(1, 0, 2)
                front[:, :c, 0] = terms[:, :, 0] + terms[:, :, 1]
            work = front.reshape(d, -1, group * m)
            for k in range(c):
                rest = work[k:]
                mags = size(rest[:, 2 * k])
                for i in range(1, len(rest)):
                    swap = mags[i] > mags[0]
                    np.maximum(mags[0], mags[i], out=mags[0])
                    moved = -rest[0]
                    np.copyto(rest[0], rest[i], where=swap)
                    np.copyto(rest[i], moved, where=swap)
                pivot = out[k] = rest[0, 2 * k]
                rest[1:, 2 * k + 1:] -= ((rest[1:, 2 * k] / (pivot + (pivot == 0)))[:, None]
                                         * rest[0, 2 * k + 1:])
            if not root:
                a, b = work[c, 2 * c], work[c, 2 * c + 1]
                pivot = out[c] = np.where(size(b) > size(a), b, a)
                pivot = pivot + (pivot == 0)
                fold[:, up] = (np.stack([-b, a]) / pivot).reshape(2, group, m)
        mant, expo = _product(pivots)
        return self._sign * (np.ldexp(mant, expo) if self.real else mant * np.ldexp(1.0, expo))

    def grid(self, lams, mesh: int) -> np.ndarray:
        """det A(lambda) for every lambda of a sample grid: on a forest by
        ``_tree_dets`` in chunks of ``_GRID_BYTES``, else by ``evaluate``."""
        if self._plan is None:
            return np.array(self.evaluate("det", lams, mesh))
        step = -(-len(lams) // -(-len(lams) // self._grid_chunk))  # chunks of equal size
        return np.concatenate([
            self._tree_dets(_transfer_stack(self.model, self.lengths, lams[first:first + step], mesh))
            for first in range(0, len(lams), step)])

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
        """Run the coroutines ``tasks`` in lockstep (``_lockstep``); returns
        their results.

        A task yields requests ``(kind, lambda, mesh)`` and is sent the
        ``evaluate`` value of that kind at lambda; only sign brackets, which
        exist when A is real, ask for "det".  Each round answers all pending
        requests with one ``evaluate`` call per kind and mesh.
        """
        def answer(requests):
            groups = {}
            for j, (kind, lam, mesh) in enumerate(requests):
                groups.setdefault((kind, mesh), []).append((j, lam))
            values = [None] * len(requests)
            for (kind, mesh), group in groups.items():
                for (j, _), v in zip(group, self.evaluate(kind, [lam for _, lam in group], mesh)):
                    values[j] = v
            return values
        return _lockstep(tasks, answer)


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
            return (yield from _relay(steps, lambda lam: ("det", lam, mesh), lambda v: v))
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
    arithmetic.  When the edges form a forest, the grid's determinants
    come from one leaf-to-root elimination instead (``_CompiledOracle.grid``).
    Sign changes of the (real) determinant on the
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
    EdgeModelError, before any evaluation, when the window spans more than
    10**6 pole indices on all edges together.
    """
    a, b = _checked_request(window, tol)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    poles = _decoupled_in_window(g, (a, b))
    oracle = _CompiledOracle(g, coupling)
    grid = np.linspace(a, b, samples)
    dets = oracle.grid(grid, _ORACLE_MESH)
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


def lower_bound_certificate(g: MetricGraph, coupling: VertexCoupling) -> Optional[float]:
    """Largest lambda0 below the decoupled ground state where
    L - P M(lambda0) P is positive semi-definite; None when no point
    qualifies.  Models ``bounded_below`` only (the decoupled operator is the
    semi-bounded soft-minimum extension there); such a lambda0 is a sound
    lower bound for the whole spectrum.  A point is PSD when the matrix has
    no negative eigenvalue, counted by ``_Inertia`` (O(V) pivots on a delta
    tree, an exact 0 counting as positive).  The first PSD point of a fixed
    descending grid is tightened by bisection against the last non-PSD one.
    """
    if not g.model.bounded_below:
        return None
    ground = decoupled_ground_state(g)
    inertia = _Inertia(g, coupling, _CompiledPairing(g, coupling))
    top = ground - max(1e-6, 1e-9 * abs(ground))
    grid = [top - (2.0 ** k - 1.0) * 1e-3 for k in range(40)]
    grid = [x for x in grid if x > ground - 1e7]

    def psd_at(lam0):
        try:
            return inertia(lam0)[0] == 0
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
