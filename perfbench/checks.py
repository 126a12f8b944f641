"""Correctness checks on the benchmark's outputs, and the baseline defect inventory.

Every check produces one ``Check`` record: pass, fail or unchecked.  A
failed check is never turned into a pass.  A failure whose evidence
matches one of the defects listed in ``KNOWN_DEFECTS`` (found when the
benchmark was defined, still present in the library) carries that defect's
tag; any other failure is a new defect and makes the run incorrect.

Spectra are compared with the rule of ``graphspectra.match_spectra`` at its
defaults (relative tolerance 1e-6 against max(1, |x|, |y|), roots within
1e-3 of a decoupled eigenvalue skipped), re-implemented here so that a
change to the library's matcher cannot vouch for the library's own output.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

PASS, FAIL, UNCHECKED = "pass", "fail", "unchecked"

MATCH_RTOL = 1e-6
EXCLUSION_RADIUS = 1e-3

# Lowest eigenvalue of geometric_chain(0.5, 0.5, 40) with alpha = 0.3, from a
# 60-digit mpmath transfer-matrix computation.
CHAIN_LOWEST_ROOT = 3.11791135211205
LOWEST_ROOT_RTOL = 1e-9
CLASSICAL_RTOL = 1e-12
UNITARY_RESIDUAL_MAX = 1e-10
EXPECTED_VERDICTS = ("HOLDS", "HOLDS", "HOLDS", "INCONCLUSIVE", "HOLDS")

# Short-edge drift of the secular route: 1.7e-6 relative on the depth-40 chain
# when the benchmark was defined.  Ten times that still reads as the same
# defect; anything further off is a new one.
SHORT_EDGE_DRIFT_MAX = 1e-5

KNOWN_DEFECTS = {
    "oracle-grid-miss": "the oracle's sample grid holds two krein roots in one "
                        "cell, sees no sign change there and misses one root; "
                        "the oracle on that cell alone finds it",
    "short-edge-drift": "on the depth-40 geometric chain the secular matrix "
                        "cancels entries of order 1/l_min and its roots drift "
                        "by about 1.7e-6 relative",
    "short-edge-multiplicity": "on the depth-40 geometric chain the secular "
                               "route reports multiplicity 19 (|det K| ~ 1e230) "
                               "where the oracle reports 1",
}


@dataclass(frozen=True)
class Check:
    workload: str
    instance: str
    lam: Optional[float]
    check: str
    got: object
    want: object
    status: str
    defect: Optional[str] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Roots:
    """One route's roots: sorted (lambda, multiplicity) pairs."""

    values: tuple
    multiplicities: tuple


def tally(checks: Sequence[Check]) -> dict:
    out = {PASS: 0, FAIL: 0, UNCHECKED: 0}
    for c in checks:
        out[c.status] += 1
    new = sum(1 for c in checks if c.status == FAIL and c.defect is None)
    return {"passed": out[PASS], "failed": out[FAIL], "unchecked": out[UNCHECKED],
            "attempted": out[PASS] + out[FAIL], "new_defects": new}


def _close(x: float, y: float, rtol: float = MATCH_RTOL) -> bool:
    return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))


def _excluded(x: float, excluded) -> bool:
    return any(abs(x - p) < EXCLUSION_RADIUS for p in excluded)


def pair_roots(a: Sequence[float], b: Sequence[float]):
    """Greedy pairing in the order of ``a``: each value takes the nearest
    unused value of ``b`` within the match tolerance.  Returns the partner
    index in ``b`` (or None) per entry of ``a``, and the unused ``b`` indices."""
    free = list(range(len(b)))
    partner = []
    for x in a:
        best = min(free, key=lambda j: abs(b[j] - x), default=None)
        if best is not None and _close(x, b[best]):
            free.remove(best)
            partner.append(best)
        else:
            partner.append(None)
    return partner, free


def grid_cell(lam: float, window, samples: int) -> int:
    a, b = window
    return int(math.floor((lam - a) / ((b - a) / (samples - 1))))


def compare_routes(workload: str, instance: str, krein: Roots, oracle: Roots,
                   excluded, confirm_grid_miss: Callable[[float], Optional[float]],
                   oracle_window, oracle_samples: int, flags=None,
                   short_edge: bool = False) -> list:
    """One check per krein root and per oracle root left unpaired.

    A krein root passes when an oracle root lies within the match tolerance
    with the same multiplicity (and, for CLI output, when its row is flagged
    ``agrees-oracle``).  Roots near a decoupled eigenvalue are unchecked.
    ``confirm_grid_miss(lam)`` re-runs the oracle on the grid cell of ``lam``
    and returns the root it finds there, or None.
    """
    checks = []
    kv = [x for x in krein.values if not _excluded(x, excluded)]
    ov = [y for y in oracle.values if not _excluded(y, excluded)]
    kmult = dict(zip(krein.values, krein.multiplicities))
    omult = dict(zip(oracle.values, oracle.multiplicities))
    for x in krein.values:
        if _excluded(x, excluded):
            checks.append(Check(workload, instance, x, "krein-root-near-pole",
                                None, None, UNCHECKED))
    for y in oracle.values:
        if _excluded(y, excluded):
            checks.append(Check(workload, instance, y, "oracle-root-near-pole",
                                None, None, UNCHECKED))
    partner, unpaired = pair_roots(kv, ov)
    cell_load = {}
    for x in kv:
        cell = grid_cell(x, oracle_window, oracle_samples)
        cell_load[cell] = cell_load.get(cell, 0) + kmult[x]

    for x, j in zip(kv, partner):
        flag = None if flags is None else flags[x]
        if j is None or (flag is not None and flag != "agrees-oracle"):
            nearest = min(ov, key=lambda y: abs(y - x), default=None)
            defect = None
            if short_edge and nearest is not None and \
                    _close(x, nearest, SHORT_EDGE_DRIFT_MAX):
                defect = "short-edge-drift"
            elif cell_load[grid_cell(x, oracle_window, oracle_samples)] >= 2:
                found = confirm_grid_miss(x)
                if found is not None and _close(x, found):
                    defect = "oracle-grid-miss"
                    nearest = found
            checks.append(Check(workload, instance, x, "no-oracle-match",
                                flag if j is not None else None, nearest,
                                FAIL, defect))
            continue
        y = ov[j]
        if kmult[x] == omult[y]:
            checks.append(Check(workload, instance, x, "multiplicity",
                                kmult[x], omult[y], PASS))
        else:
            defect = "short-edge-multiplicity" if short_edge and \
                kmult[x] > omult[y] else None
            checks.append(Check(workload, instance, x, "multiplicity",
                                kmult[x], omult[y], FAIL, defect))
    for j in unpaired:
        y = ov[j]
        nearest = min(kv, key=lambda x: abs(x - y), default=None)
        defect = None
        if short_edge and nearest is not None and \
                _close(y, nearest, SHORT_EDGE_DRIFT_MAX):
            defect = "short-edge-drift"
        checks.append(Check(workload, instance, y, "no-krein-match",
                            None, nearest, FAIL, defect))
    return checks


def lowest_root_checks(workload: str, instance: str, routes: dict) -> list:
    """The lowest root of each route against the 60-digit chain reference."""
    checks = []
    for route, values in routes.items():
        got = min(values) if len(values) else None
        ok = got is not None and \
            abs(got - CHAIN_LOWEST_ROOT) <= LOWEST_ROOT_RTOL * CHAIN_LOWEST_ROOT
        defect = None
        if not ok and route == "krein" and got is not None and \
                abs(got - CHAIN_LOWEST_ROOT) <= SHORT_EDGE_DRIFT_MAX * CHAIN_LOWEST_ROOT:
            defect = "short-edge-drift"
        checks.append(Check(workload, instance, got, f"lowest-root-{route}",
                            got, CHAIN_LOWEST_ROOT, PASS if ok else FAIL, defect))
    return checks


def parse_spectrum_csv(text: str):
    """CLI ``spectrum`` output -> (krein Roots, krein flags, oracle Roots, poles)."""
    rows = list(csv.DictReader(io.StringIO(text)))
    krein = [r for r in rows if r["method"] == "krein"
             and r["flag"] != "undetermined-by-matching"]
    poles = tuple(float(r["lambda"]) for r in rows if r["method"] == "krein"
                  and r["flag"] == "undetermined-by-matching")
    oracle = [r for r in rows if r["method"] == "oracle"]

    def roots(rs):
        return Roots(tuple(float(r["lambda"]) for r in rs),
                     tuple(int(r["multiplicity"]) for r in rs))

    flags = {float(r["lambda"]): r["flag"] for r in krein}
    return roots(krein), flags, roots(oracle), poles


def classical_delta_checks(workload: str, instance: str, edges, alpha: dict,
                           labels, b: dict, c, m) -> list:
    """b(v,w) = 1/length per edge, c(v) = alpha(v) and m(v) = sum of incident
    length/2 per vertex, to 1e-12 relative; weights between non-adjacent
    vertices fail.  ``edges`` are (id, source, target, length) tuples.

    c(v) is the diagonal pairing alpha(v) + sum of incident 1/length minus
    the weights, so its error is relative to that diagonal, not to alpha(v):
    with alpha(v) = 2.5e-4 and a diagonal near 10, rounding alone leaves
    8e-16, which is 3e-12 of alpha(v)."""
    index = {lab: i for i, lab in enumerate(labels)}
    half_lengths = {lab: 0.0 for lab in labels}
    inverse_lengths = {lab: 0.0 for lab in labels}
    expected_b = {}
    for _, src, dst, length in edges:
        i, j = sorted((index[src], index[dst]))
        expected_b[(i, j)] = expected_b.get((i, j), 0.0) + 1.0 / length
        for v in (src, dst):
            half_lengths[v] += length / 2
            inverse_lengths[v] += 1.0 / length
    checks = []

    def add(name, lam_label, got, want, scale=0.0):
        ok = abs(got - want) <= CLASSICAL_RTOL * max(abs(want), scale)
        checks.append(Check(workload, instance, None, f"{name}({lam_label})",
                            got, want, PASS if ok else FAIL))

    for (i, j), want in sorted(expected_b.items()):
        add("b", f"{labels[i]},{labels[j]}", float(b.get((i, j), 0.0)), want)
    for (i, j), got in sorted(b.items()):
        if (i, j) not in expected_b:
            checks.append(Check(workload, instance, None,
                                f"b({labels[i]},{labels[j]})", float(got), 0.0, FAIL))
    for lab in labels:
        add("c", lab, float(c[index[lab]]), alpha[lab],
            abs(alpha[lab]) + inverse_lengths[lab])
        add("m", lab, float(m[index[lab]]), half_lengths[lab])
    return checks


def residual_check(workload: str, instance: str, residual: float) -> Check:
    ok = residual <= UNITARY_RESIDUAL_MAX
    return Check(workload, instance, None, "unitary-equivalence-residual",
                 residual, UNITARY_RESIDUAL_MAX, PASS if ok else FAIL)


def verdict_checks(workload: str, instance: str, results) -> list:
    checks = []
    for i, want in enumerate(EXPECTED_VERDICTS):
        got = results[i].verdict if i < len(results) else None
        name = results[i].criterion if i < len(results) else f"criterion-{i}"
        checks.append(Check(workload, instance, None, f"verdict:{name}", got, want,
                            PASS if got == want else FAIL))
    return checks
