"""Eigenvalue computation on finite graphs, by two independent routes.

Route 1 (matching / secular matrix): lambda is an eigenvalue of the
coupled operator, for lambda outside the decoupled edge spectra, exactly
when the Hermitian matrix

    K(lambda)[i, j] = <(L - M(lambda)) bhat_j, bhat_i>

over the orthonormalized global basis is singular.  Since every edge
response matrix has positive-definite derivative on real gaps, K is
strictly decreasing in lambda between consecutive poles, so each sorted
eigenvalue branch of K crosses zero at most once per pole-free cell and
bisection on the branches finds every root with its multiplicity - in
particular even-multiplicity roots that a bare determinant sign scan
cannot see.

Route 2 (oracle): per edge, the raw first-order ODE system is integrated
by classical RK4 to build transfer matrices; the vertex conditions
(trace data in the coupling subspace plus the Hermitian-block flux
condition) are assembled into one global matrix whose determinant
vanishes at eigenvalues.  No closed-form trigonometry enters, so this
route is algorithmically independent of route 1 and is also valid at
points embedded in the decoupled spectra, where the matching criterion
is silent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import edges as em
from .coupling import GlobalBasis, VertexCoupling, global_basis, pairing
from .graphs import MetricGraph, edge_model_for, incidence_sets

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
    a, b = window
    vals = []
    for e in g.edges:
        model = edge_model_for(g.model, e)
        vals.extend(em.decoupled_eigenvalues(model, e.length, window=(a, b)))
    out = []
    for v in sorted(vals):
        if not out or abs(v - out[-1]) > 1e-12 * max(1.0, abs(v)):
            out.append(float(v))
    return np.array(out)


def krein_matrix(g: MetricGraph, coupling: VertexCoupling, lam,
                 gb: Optional[GlobalBasis] = None) -> np.ndarray:
    """Secular matrix <(L - M(lambda)) bhat_j, bhat_i> over the global basis.

    This is the shared boundary pairing ``coupling.pairing`` at
    M = M(lambda), with the raw basis vectors b normalized to bhat =
    b / ||b||.  Hermitian for real lambda; raises PoleOfWeylError within
    1e-8 of a decoupled edge eigenvalue.
    """
    if gb is None:
        gb = global_basis(g, coupling)
    blocks = {}
    for e in g.edges:
        model = edge_model_for(g.model, e)
        dist, pole = em.pole_distance(model, e.length, lam)
        if dist < _POLE_GUARD * max(1.0, abs(pole)):
            raise em.PoleOfWeylError(lam, pole)
        blocks[e.id] = em.weyl(model, e.length, lam)
    norms = np.array([el.norm for el in gb.elements])
    return pairing(gb, coupling, blocks) / np.outer(norms, norms)


def _branch_eigenvalues(g, coupling, gb, lam):
    k = krein_matrix(g, coupling, lam, gb)
    return np.sort(np.linalg.eigvalsh(k))[::-1]  # descending


def _bisect_branch(fun, j, lo, hi, flo, fhi, tol):
    """Zero of the j-th descending eigenvalue branch (decreasing in lambda).

    Bisection to the requested tolerance, then a short secant polish that
    usually lands within a few ulps.
    """
    a, b = lo, hi
    fa, fb = flo, fhi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if b - a < max(tol, 4e-16 * max(1.0, abs(mid))):
            break
        fm = fun(mid)[j]
        if fm > 0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    x0, f0, x1, f1 = a, fa, b, fb
    for _ in range(4):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi):
            break
        f2 = fun(x2)[j]
        x0, f0, x1, f1 = x1, f1, x2, f2
        if f2 == 0.0:
            break
    return x1 if abs(f1) <= abs(f0) else x0


def scan_spectrum(g: MetricGraph, coupling: VertexCoupling, window,
                  tol: float = 1e-8) -> SpectrumResult:
    """All eigenvalues in the window that are visible to the matching criterion.

    The window is subdivided at the decoupled edge eigenvalues; those points
    are reported in ``excluded`` with the flag "undetermined-by-matching"
    since the criterion does not apply there (the oracle route resolves
    them).  Within each pole-free cell the sorted eigenvalue branches of
    K(lambda) are strictly decreasing, so each is bisected independently;
    coinciding branch zeros merge into one root with multiplicity.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError("window must satisfy a < b")
    gb = global_basis(g, coupling)
    poles = _decoupled_in_window(g, (a - 1.0, b + 1.0))
    if g.has_half_line and b > -_POLE_GUARD:
        raise ValueError("half-line graphs: window must stay below 0")

    cuts = [a] + [p for p in poles if a < p < b] + [b]
    roots = []
    fun = lambda lam: _branch_eigenvalues(g, coupling, gb, lam)
    nbranch = len(gb.elements)
    usable_cells = 0
    for left, right in zip(cuts[:-1], cuts[1:]):
        pad = 10 * _POLE_GUARD * max(1.0, abs(left), abs(right))
        lo, hi = left + pad, right - pad
        if hi <= lo:
            continue
        usable_cells += 1
        flo, fhi = fun(lo), fun(hi)
        cell_roots = []
        for j in range(nbranch):
            if flo[j] > 0 >= fhi[j]:
                r = _bisect_branch(fun, j, lo, hi, flo[j], fhi[j], tol)
                cell_roots.append(r)
        cell_roots.sort()
        merged = []
        for r in cell_roots:
            if merged and abs(r - merged[-1][0]) < max(100 * tol, 1e-9 * max(1.0, abs(r))):
                merged[-1][1] += 1
            else:
                merged.append([r, 1])
        for r, mult in merged:
            kmat = krein_matrix(g, coupling, r, gb)
            residual = abs(np.linalg.det(kmat))
            sv = np.linalg.svd(kmat, compute_uv=False)
            mult_sv = int(np.sum(sv < _KERNEL_CUTOFF * max(1.0, sv[0])))
            roots.append(Root(r, float(residual), max(mult, mult_sv), "krein"))
    if usable_cells == 0:
        raise ValueError("window consists of pole neighborhoods only")
    excluded = tuple(float(p) for p in poles if a <= p <= b)
    return SpectrumResult(tuple(roots), excluded, "krein", (a, b))


# ----------------------------------------------------------------- oracle

def _rk4_step_matrix(a_mats: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step matrix for u' = A u, batched over the leading axis."""
    n = a_mats.shape[-1]
    eye = np.broadcast_to(np.eye(n), a_mats.shape)
    k1 = a_mats
    k2 = a_mats @ (eye + (h / 2) * k1)
    k3 = a_mats @ (eye + (h / 2) * k2)
    k4 = a_mats @ (eye + h * k3)
    return eye + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _transfer_matrices(g: MetricGraph, lams: np.ndarray, mesh: int) -> dict:
    """Per-edge transfer matrices u(0) -> u(length) by RK4 over ``mesh`` steps.

    The per-edge systems use only the raw differential equations:
    (psi, psi') for the Laplacian and the real form (psi1, i*psi2) for the
    Dirac operator.  The RK4 step matrix of a constant-coefficient system
    is composed by binary powering, which reproduces sequential stepping.
    """
    lams = np.asarray(lams, dtype=float)
    nl = lams.shape[0]
    out = {}
    steps = 1 << max(1, int(math.ceil(math.log2(mesh))))
    for e in g.edges:
        if e.is_half_line:
            raise ValueError("oracle handles finite lengths only")
        if isinstance(g.model, em.Dirac):
            c = g.model.c
            a = np.zeros((nl, 2, 2))
            a[:, 0, 1] = (lams + c * c / 2) / c
            a[:, 1, 0] = -(lams - c * c / 2) / c
        else:
            a = np.zeros((nl, 2, 2))
            a[:, 0, 1] = 1.0
            a[:, 1, 0] = -lams
        h = e.length / steps
        t = _rk4_step_matrix(a, h)
        k = steps
        acc = np.broadcast_to(np.eye(2), t.shape).copy()
        while k:
            if k & 1:
                acc = t @ acc
            t = t @ t
            k >>= 1
        out[e.id] = acc
    return out


def _oracle_rows(g: MetricGraph, coupling: VertexCoupling):
    """Precompute per-vertex condition data in the phase-rotated coordinates.

    Rotating each incidence coordinate by conj(phase) (phase = i^t for the
    Dirac model, 1 otherwise) makes the delta-type conditions real: traces
    become psi1 values and fluxes become c * sign * (i psi2) values.
    """
    inc = incidence_sets(g)
    dirac = isinstance(g.model, em.Dirac)
    rows = []
    for v in sorted(g.vertices):
        entries = inc[v]
        deg = len(entries)
        phases = np.array(
            [1.0 if (not dirac or e.endpoint == 0) else 1.0j for e in entries]
        )
        block = coupling.block(v)
        # D_v = diag(conj(phase)); rotated subspace basis is D_v @ basis.
        basis = (phases.conj()[:, None]) * block.basis
        norms = np.linalg.norm(basis, axis=0)
        unit = basis / norms
        q, s, _ = np.linalg.svd(basis, full_matrices=True)
        rank = basis.shape[1]
        comp = q[:, rank:]
        rows.append((v, entries, unit, comp, block.matrix))
    return rows


def _oracle_matrix(g, rows_data, transfers, lam_index):
    """Assemble the vertex-condition matrix at one sampled lambda."""
    edge_ids = sorted(e.id for e in g.edges)
    col_of = {eid: 2 * i for i, eid in enumerate(edge_ids)}
    n = 2 * len(edge_ids)
    dirac = isinstance(g.model, em.Dirac)
    c = g.model.c if dirac else None

    def trace_rows(entries):
        """Per incidence: rotated (Gamma0, Gamma1) as rows over the unknowns."""
        g0 = np.zeros((len(entries), n), dtype=complex)
        g1 = np.zeros((len(entries), n), dtype=complex)
        for i, entry in enumerate(entries):
            col = col_of[entry.edge]
            t_mat = transfers[entry.edge][lam_index]
            if entry.endpoint == 0:
                first = np.array([1.0, 0.0])
                second = np.array([0.0, 1.0])
            else:
                first = t_mat[0]
                second = t_mat[1]
            if dirac:
                # rotated traces: psi1(t ell) and c * sign * (i psi2)(t ell)
                g0[i, col:col + 2] = first
                g1[i, col:col + 2] = c * entry.sign * second
            else:
                g0[i, col:col + 2] = first
                g1[i, col:col + 2] = entry.sign * second
        return g0, g1

    out_rows = []
    for v, entries, unit, comp, mat in rows_data:
        g0, g1 = trace_rows(entries)
        # Gamma0 data must lie in the rotated coupling subspace.
        for k in range(comp.shape[1]):
            out_rows.append(comp[:, k].conj() @ g0)
        # Hermitian block condition: <Gamma1, bhat_i> = sum_j mat[i, j] <Gamma0, bhat_j>.
        proj0 = unit.conj().T @ g0
        proj1 = unit.conj().T @ g1
        for i in range(unit.shape[1]):
            out_rows.append(proj1[i] - mat[i] @ proj0)
    return np.array(out_rows)


def _oracle_dets(g, rows_data, lams, mesh):
    transfers = _transfer_matrices(g, np.asarray(lams, dtype=float), mesh)
    dets = []
    real_ok = True
    for i in range(len(lams)):
        a = _oracle_matrix(g, rows_data, transfers, i)
        if np.max(np.abs(a.imag)) > 1e-9 * max(1.0, np.max(np.abs(a.real))):
            real_ok = False
        dets.append(np.linalg.det(a))
    return np.array(dets), real_ok


def _oracle_sigma_ratio(g, rows_data, lam, mesh):
    transfers = _transfer_matrices(g, np.array([lam]), mesh)
    a = _oracle_matrix(g, rows_data, transfers, 0)
    sv = np.linalg.svd(a, compute_uv=False)
    return sv[-1] / max(sv[0], 1e-300), sv


def oracle_eigenvalues(g: MetricGraph, coupling: VertexCoupling, window,
                       mesh: int = 2000, tol: float = 1e-8,
                       samples: int = 600) -> SpectrumResult:
    """Eigenvalues in the window from the RK4 transfer-matrix determinant.

    Sign changes of the (real) determinant are bisected; local minima of
    |det| that dip to a numerical kernel (even-multiplicity roots) are
    refined by golden-section search on the smallest singular value.
    Each root is re-polished at twice the mesh; movement beyond 10 * tol
    raises OracleConvergenceError.
    """
    a, b = float(window[0]), float(window[1])
    if not a < b:
        raise ValueError("window must satisfy a < b")
    rows_data = _oracle_rows(g, coupling)
    grid = np.linspace(a, b, samples)
    dets, real_ok = _oracle_dets(g, rows_data, grid, mesh)

    candidates = []  # (lo, hi, kind)
    if real_ok:
        vals = dets.real
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

    def det_at(lam, use_mesh):
        transfers = _transfer_matrices(g, np.array([lam]), use_mesh)
        return np.linalg.det(_oracle_matrix(g, rows_data, transfers, 0))

    def refine(lo, hi, kind, use_mesh):
        if kind == "sign":
            fa = det_at(lo, use_mesh).real
            fb = det_at(hi, use_mesh).real
            attempts = 0
            while np.sign(fa) == np.sign(fb) and attempts < 5:
                span = hi - lo
                lo, hi = max(a, lo - span), min(b, hi + span)
                fa = det_at(lo, use_mesh).real
                fb = det_at(hi, use_mesh).real
                attempts += 1
            if np.sign(fa) == np.sign(fb):
                kind = "min"  # degenerate bracket: fall through to minimization
            else:
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if hi - lo < max(tol * 1e-3, 4e-16 * max(1.0, abs(mid))):
                        break
                    fm = det_at(mid, use_mesh).real
                    if fm == 0.0:
                        return mid
                    if np.sign(fm) == np.sign(fa):
                        lo, fa = mid, fm
                    else:
                        hi = mid
                return 0.5 * (lo + hi)
        # golden-section minimization of the smallest singular-value ratio
        phi = (math.sqrt(5) - 1) / 2
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
        f1 = _oracle_sigma_ratio(g, rows_data, x1, use_mesh)[0]
        f2 = _oracle_sigma_ratio(g, rows_data, x2, use_mesh)[0]
        for _ in range(120):
            if hi - lo < max(tol * 1e-3, 4e-16 * max(1.0, abs(lo))):
                break
            if f1 <= f2:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - phi * (hi - lo)
                f1 = _oracle_sigma_ratio(g, rows_data, x1, use_mesh)[0]
            else:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + phi * (hi - lo)
                f2 = _oracle_sigma_ratio(g, rows_data, x2, use_mesh)[0]
        return 0.5 * (lo + hi)

    roots = []
    for lo, hi, kind in candidates:
        r = refine(lo, hi, kind, mesh)
        ratio, sv = _oracle_sigma_ratio(g, rows_data, r, mesh)
        if ratio > 1e-5:
            continue  # spurious |det| dip, matrix not numerically singular
        r2 = refine(max(a, r - 10 * max(tol, 1e-9 * max(1.0, abs(r)))),
                    min(b, r + 10 * max(tol, 1e-9 * max(1.0, abs(r)))),
                    kind, 2 * mesh)
        if abs(r2 - r) > 10 * max(tol, tol * abs(r)):
            raise OracleConvergenceError(
                f"root at {r} moved by {abs(r2 - r):.3e} under mesh doubling"
            )
        ratio2, sv2 = _oracle_sigma_ratio(g, rows_data, r2, 2 * mesh)
        mult = int(np.sum(sv2 < max(_KERNEL_CUTOFF, 10 * ratio2) * max(sv2[0], 1e-300)))
        roots.append(Root(float(r2), float(ratio2), max(1, mult), "oracle"))

    merged = []
    for r in sorted(roots, key=lambda r: r.lam):
        if merged and abs(r.lam - merged[-1].lam) < max(100 * tol, 1e-9 * max(1.0, abs(r.lam))):
            if r.residual < merged[-1].residual:
                merged[-1] = r
            continue
        merged.append(r)
    poles = _decoupled_in_window(g, (a, b))
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


def lower_bound_certificate(g: MetricGraph, coupling: VertexCoupling,
                            reg=None, grid=None) -> Optional[float]:
    """Largest grid point lambda0 below the decoupled ground state where
    L - P M(lambda0) P is positive semi-definite; None when no grid point
    qualifies.  Laplacian model only (the decoupled operator is the
    semi-bounded soft-minimum extension there); such a lambda0 is a sound
    lower bound for the whole spectrum.
    """
    if isinstance(g.model, em.Dirac):
        return None
    ground = decoupled_ground_state(g)
    gb = global_basis(g, coupling)
    if grid is None:
        top = ground - max(1e-6, 1e-9 * abs(ground))
        grid = [top - (2.0 ** k - 1.0) * 1e-3 for k in range(40)]
        grid = [x for x in grid if x > ground - 1e7]
    def psd_at(lam0):
        try:
            kmat = krein_matrix(g, coupling, lam0, gb)
        except em.EdgeModelError:
            return None
        evs = np.linalg.eigvalsh(kmat)
        return bool(evs[0] >= -1e-10 * max(1.0, float(np.max(np.abs(evs)))))

    best = None
    prev_non_psd = None
    for lam0 in sorted(grid, reverse=True):
        if lam0 >= ground:
            continue
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


def match_spectra(a_vals, b_vals, exclude=(), rtol: float = 1e-6,
                  exclusion_radius: float = 1e-3):
    """Pair two sorted root lists; returns (pairs, only_a, only_b).

    Roots within ``exclusion_radius`` of an excluded point are skipped on
    both sides (the matching criterion is silent there).
    """
    exclude = np.asarray(list(exclude), dtype=float)

    def keep(x):
        return not (exclude.size and np.min(np.abs(exclude - x)) < exclusion_radius)

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
