"""Sufficient-condition checks for the coupled operator via its discrete data.

Each check returns a CriterionResult with verdict HOLDS / FAILS /
INCONCLUSIVE and a witness dictionary.  HOLDS and FAILS are only emitted
when the hypothesis is decidable from the data at hand: finite graphs
decide everything exactly; graphs carrying geometric-chain truncation
metadata decide summability questions through closed-form geometric
sums; any other "infinite extent" claim yields INCONCLUSIVE together
with the partial sums that were computed (partial sums alone prove
nothing).  The Dirichlet resolvent traces of the trace-class check are
exact, taken at min(lambda0, 0) rather than at lambda0.

Naming of the hypothesis tags: "sa" = self-adjointness, "disc" =
discreteness of spectrum, "sb" = semi-boundedness from below, "unif" =
uniformly bounded edge lengths (the regime where the unregularized
direct-sum trace maps already work).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import edges as em
from .discrete import DiscreteLaplacian, _weights, weighted_degree
from .graphs import MetricGraph
from .regularize import Regularization
from .spectra import _rounding_bound, decoupled_ground_state, krein_matrix

__all__ = [
    "CriterionResult",
    "check_self_adjointness",
    "check_discreteness",
    "check_semibounded",
    "check_bounded_triplet_case",
    "check_mtilde_divergence",
]

HOLDS = "HOLDS"
FAILS = "FAILS"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class CriterionResult:
    criterion: str
    verdict: str
    ref: str                   # which hypothesis decided (self-contained tag)
    witness: dict = field(default_factory=dict)
    truncation_depth: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "criterion_ref": self.ref,
            "witness": _jsonable(self.witness),
            "truncation_depth": self.truncation_depth,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _is_geometric_chain(dl_or_graph) -> bool:
    info = getattr(dl_or_graph, "truncation", None)
    return info is not None and info.kind == "geometric_chain"


def _canonical(dl: DiscreteLaplacian) -> bool:
    """Delta data regularized at the default point ``_lambda0`` of its
    model, up to rounding: the gap center c^2/2 for Dirac, 0 for the
    Laplacian."""
    point = dl.model._lambda0
    return dl.flavor == "delta" and abs(dl.lambda0 - point) <= 1e-12 * max(1.0, abs(point))


def _geometric_tail(first: float, ratio: float, start_index: int) -> float:
    """sum_{n >= start_index} first * ratio**n; inf when ratio >= 1."""
    if ratio >= 1.0:
        return math.inf
    return first * ratio ** start_index / (1.0 - ratio)


def check_self_adjointness(dl: DiscreteLaplacian) -> CriterionResult:
    """Self-adjointness via (i) path-measure divergence + bounded c/m from
    below, or (ii) bounded weighted degree."""
    crit = "self-adjointness"
    if not dl.criteria_applicable:
        return CriterionResult(crit, FAILS, "sa.precondition",
                               {"reason": "weights b(v,w) must be real and >= 0"})
    inf_cm = float(np.min(dl.c / dl.m)) if dl.size else 0.0
    deg = weighted_degree(dl)
    sup_deg = float(np.max(deg)) if dl.size else 0.0
    witness = {"inf_c_over_m": inf_cm, "sup_deg_truncated": sup_deg}
    gap_center = _canonical(dl) and not dl.model.bounded_below  # Dirac at c^2/2
    if gap_center:
        witness["bounded_degree"] = {
            "verdict": HOLDS if sup_deg <= dl.model.c ** 2 + 1e-12 else FAILS,
            "model_bound": dl.model.c ** 2,
        }

    if dl.truncation is None:
        # Finite index set: every infinite b-positive path revisits indices,
        # so the path measure sums diverge; inf c/m is a finite minimum.
        witness["path_rule"] = "finite index set: all infinite paths have divergent measure"
        return CriterionResult(crit, HOLDS, "sa.path-divergence", witness)

    depth = dl.truncation.depth
    if not _is_geometric_chain(dl):
        return CriterionResult(crit, INCONCLUSIVE, "sa.unknown-family", witness, depth)

    info = dl.truncation
    # (ii) with the model bound: for the delta-coupled Dirac family the
    # weighted degree is bounded by c^2 vertex by vertex, any lengths with
    # finite supremum.
    if gap_center and info.ratio <= 1.0:
        witness["bound"] = dl.model.c ** 2
        witness["sup_length"] = info.first_length * max(1.0, info.ratio)
        return CriterionResult(crit, HOLDS, "sa.bounded-degree", witness, depth)

    # (i) for the canonical Laplacian chain at lambda0 = 0: the chain path
    # has m(v_n) = (l_{n-1} + l_n)/2, a geometric series.
    if _canonical(dl) and dl.model.bounded_below:
        partial = float(np.sum(dl.m))
        # At lambda0 = 0 every edge contributes length/2 to each endpoint, so
        # the family total of the measure equals the total length.
        tail = _geometric_tail(info.first_length, info.ratio, info.depth)
        witness["path_measure_partial_sum"] = partial
        witness["path_measure_tail_closed_form"] = tail
        if math.isinf(tail):
            return CriterionResult(crit, HOLDS, "sa.path-divergence", witness, depth)
        witness["path_measure_total"] = partial + tail
        # Divergence hypothesis fails in closed form; (ii) fails too since
        # Deg(v_n) grows like ratio**(-2n).  Sufficient conditions silent.
        witness["deg_growth"] = "unbounded (closed form for geometric lengths)"
        return CriterionResult(crit, INCONCLUSIVE, "sa.path-divergence", witness, depth)
    return CriterionResult(crit, INCONCLUSIVE, "sa.unknown-family", witness, depth)


def check_discreteness(dl: DiscreteLaplacian, g: MetricGraph,
                       reg: Regularization) -> CriterionResult:
    """Trace-class resolvent of every self-adjoint extension via
    (i) b-positive connectivity, (ii) trace-class decoupled resolvent,
    (iii) summable measure, summable inverse weights, bounded c/m; (ii)
    reads exact Dirichlet resolvent traces at min(lambda0, 0), not lambda0."""
    crit = "discreteness"
    if not dl.criteria_applicable:
        return CriterionResult(crit, FAILS, "disc.precondition",
                               {"reason": "weights b(v,w) must be real and >= 0"})
    depth = dl.truncation.depth if dl.truncation is not None else None
    geometric = _is_geometric_chain(dl)
    info = dl.truncation if geometric else None
    witness: dict = {}
    sub = {}

    # (i) connectivity through positive weights: each edge hooks the larger
    # label of its ends onto the smaller and every label then jumps once,
    # until none changes (16 rounds on a randomly numbered 200,000-vertex
    # path); labels end as each component's least index, the list order.
    n = dl.size
    i, j, w = _weights(dl)
    i, j = i[w > 0], j[w > 0]
    least, before = np.arange(n), None
    while not np.array_equal(least, before):
        before = least.copy()
        np.minimum.at(least, np.maximum(least[i], least[j]), np.minimum(least[i], least[j]))
        least = least[least]
    count = int(np.count_nonzero(least == np.arange(n)))
    if count > 1:
        order = np.argsort(least, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(least[order])) + 1)
        components = [sorted(dl.labels[k] for k in group) for group in groups]
        sub["connectivity"] = {"verdict": FAILS, "components": components}
    else:
        sub["connectivity"] = {"verdict": HOLDS, "components": count}

    # (ii) trace-class decoupled resolvent
    if not g.model.bounded_below:
        sub["trace_class_decoupled"] = {
            "verdict": FAILS,
            "reason": "eigenvalues grow linearly (~ +/- c n pi / length): "
                      "the inverse-distance series is harmonic and diverges on every edge",
            "asymptotic_rate_per_edge": {e.id: e.length / (g.model.c * math.pi) for e in g.edges},
        }
    elif g.has_half_line:
        sub["trace_class_decoupled"] = {
            "verdict": FAILS,
            "reason": "half-line edges have continuous decoupled spectrum",
        }
    else:
        # sum_n 1/((n pi / l)^2 + mu) = l^2 (y coth y - 1) / (2 y^2), y = l sqrt(mu),
        # mu = -min(lambda0, 0); its series below y = 0.1, where that form cancels.
        lengths = g._index.lengths
        y = lengths * math.sqrt(-min(reg.lambda0, 0.0))
        small, y2 = y < 0.1, y * y
        z = np.where(small, 1.0, y)  # the closed form's argument, kept off 0
        traces = lengths ** 2 * np.where(
            small, 1 / 6 - y2 / 90 + y2 ** 2 / 945 - y2 ** 3 / 9450 + y2 ** 4 / 93555,
            (z / np.tanh(z) - 1.0) / (2 * z * z))
        entry = {"verdict": HOLDS, "per_edge": dict(zip((e.id for e in g.edges), traces.tolist())),
                 "sum": float(np.sum(traces))}
        if geometric:
            # Family tail over edges: sum_e l_e^2 * (zeta(2)/pi^2 + o(1)).
            l2_tail = _geometric_tail(info.first_length ** 2, info.ratio ** 2, info.depth)
            entry["family_length_sq_tail"] = l2_tail
            entry["verdict"] = HOLDS if math.isfinite(l2_tail) else FAILS
            if not math.isfinite(l2_tail):
                entry["reason"] = "sum of squared lengths diverges"
        elif dl.truncation is not None:
            entry["verdict"] = INCONCLUSIVE
            entry["reason"] = "no closed form for the declared infinite family"
        sub["trace_class_decoupled"] = entry

    # (iii) summability
    m_sum = float(np.sum(dl.m))
    inv_b_sum = float(sum(1.0 / v for v in dl.b.values() if v > 0))
    inf_cm = float(np.min(dl.c / dl.m)) if dl.size else 0.0
    entry = {"m_partial_sum": m_sum, "inv_b_partial_sum": inv_b_sum,
             "inf_c_over_m": inf_cm}
    if dl.truncation is None:
        entry["verdict"] = HOLDS
    elif geometric and dl.model.bounded_below and _canonical(dl):
        m_tail = _geometric_tail(info.first_length, info.ratio, info.depth)
        inv_b_tail = _geometric_tail(info.first_length, info.ratio, info.depth)
        entry["m_tail_closed_form"] = m_tail
        entry["inv_b_tail_closed_form"] = inv_b_tail
        entry["m_total"] = m_sum + m_tail if math.isfinite(m_tail) else math.inf
        entry["inv_b_total"] = inv_b_sum + inv_b_tail if math.isfinite(inv_b_tail) else math.inf
        ok = math.isfinite(m_tail) and math.isfinite(inv_b_tail) and math.isfinite(inf_cm)
        entry["verdict"] = HOLDS if ok else FAILS
    else:
        entry["verdict"] = INCONCLUSIVE
        entry["reason"] = "partial sums prove nothing without a closed-form family law"
    sub["summability"] = entry

    witness.update(sub)
    verdicts = [sub["connectivity"]["verdict"],
                sub["trace_class_decoupled"]["verdict"],
                sub["summability"]["verdict"]]
    if all(v == HOLDS for v in verdicts):
        overall = HOLDS
    elif any(v == FAILS for v in verdicts):
        overall = FAILS
    else:
        overall = INCONCLUSIVE
    return CriterionResult(crit, overall, "disc.connectivity+trace-class+summability",
                           witness, depth)


def check_semibounded(g: MetricGraph, coupling, reg: Regularization,
                      lam0_cert: float) -> CriterionResult:
    """Lower bound lam0_cert for the coupled operator: positive
    semi-definiteness of L - P M(lam0_cert) P below the decoupled ground state,
    by an eigensolve: HOLDS when the least eigenvalue exceeds the certificate's
    rounding bound len(evs) eps max |evs| (~ 1 / l_min), FAILS below minus it, else INCONCLUSIVE.

    Only meaningful when the decoupled edge operators form the semi-bounded
    soft-minimum extension, which holds for the Laplacian with its
    trace-zero (Dirichlet) decoupling; the Dirac model is not bounded below,
    so the check is INCONCLUSIVE there.
    """
    crit = "semi-boundedness"
    if not g.model.bounded_below:
        return CriterionResult(crit, INCONCLUSIVE, "sb.model",
                               {"reason": "Dirac edges are not semi-bounded; "
                                          "no soft-minimum decoupling available"})
    ground = decoupled_ground_state(g)
    if not lam0_cert < ground:
        raise ValueError(
            f"lam0_cert={lam0_cert} is not below the decoupled ground state {ground}"
        )
    evs = np.linalg.eigvalsh(krein_matrix(g, coupling, lam0_cert))
    bound = _rounding_bound(evs)
    verdict = HOLDS if evs[0] > bound else FAILS if evs[0] < -bound else INCONCLUSIVE
    witness = {"lambda0_cert": lam0_cert, "min_eigenvalue": float(evs[0]),
               "rounding_bound": bound, "decoupled_ground_state": ground}
    return CriterionResult(crit, verdict, "sb.shift-psd", witness)


def check_bounded_triplet_case(g: MetricGraph) -> CriterionResult:
    """Uniformly bounded edge lengths: 0 < inf length <= sup length < inf.

    In this regime the unregularized direct sum of the edge trace maps is
    already well defined and the coupled operator with Hermitian blocks is
    self-adjoint outright.
    """
    crit = "uniform-edge-lengths"
    lengths = [e.length for e in g.edges]
    inf_l, sup_l = min(lengths), max(lengths)
    depth = None
    if _is_geometric_chain(g):
        info = g.truncation
        depth = info.depth
        if info.ratio < 1.0:
            inf_l = 0.0
        elif info.ratio > 1.0:
            sup_l = math.inf
    witness = {"inf_length": inf_l, "sup_length": sup_l}
    if inf_l > 0 and math.isfinite(sup_l):
        return CriterionResult(crit, HOLDS, "unif.inf-sup", witness, depth)
    return CriterionResult(crit, FAILS, "unif.inf-sup", witness, depth)


def check_mtilde_divergence(g: MetricGraph, reg: Regularization) -> CriterionResult:
    """Numerical evidence scan for the renormalized response matrices
    diverging to -infinity: max eigenvalue of each edge's renormalized
    matrix at lambda = -10**k, k = 1, ..., 6, must be strictly decreasing,
    and no sample may sit on a pole of its edge (``samples_on_poles``).
    Each edge model takes all six samples in one kernel call and one eigensolve.

    The hypothesis is about a limit, so the verdict is capped at
    INCONCLUSIVE; the witness says whether the sampled evidence supports it.
    """
    crit = "renormalized-divergence"
    lams = np.array([-10.0 ** k for k in range(1, 7)])
    tops = np.empty((len(g.edges), len(lams)))  # max eigenvalue per edge and sample
    on = np.empty(tops.shape, dtype=bool)  # sample on a pole of its edge
    norms = np.array([reg.norm_prime[e.id] for e in g.edges])[:, None, None, None]
    for model, at, lengths in g._index.by_model:
        _, _, hit, change, _ = em._responses(model, lengths, lams, since=reg.lambda0)
        on[at] = hit
        change = np.where(hit[:, :, None, None], 0.0, change) / norms[at]
        tops[at] = np.linalg.eigvalsh(change)[..., -1]
    poled = on.any(axis=1)
    decreasing = ~poled & (np.diff(tops, axis=1) < 0).all(axis=1)
    supports = bool((decreasing & (tops[:, -1] < 0)).all())
    per_edge = {e.id: {"max_eigenvalues": top, "strictly_decreasing": dec}
                for e, top, dec in zip(g.edges, tops.tolist(), decreasing.tolist())}
    for i in np.flatnonzero(poled):
        per_edge[g.edges[i].id].update(max_eigenvalues=tops[i, ~on[i]].tolist(),
                                       samples_on_poles=lams[on[i]].tolist())
    return CriterionResult(crit, INCONCLUSIVE, "sb.mtilde-scan",
                           {"evidence_supports": supports, "per_edge": per_edge})
