"""One workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                --workdir DIR [--setup-only]

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the BLAS thread
count pinned in the environment.  Prints one JSON object on stdout.

Set-up time runs from just before ``import graphspectra`` to the end of
input building, so the library is imported here and not at module level.

Every time is reported in reference seconds: the wall time of a call,
multiplied by CALIBRATION_REF_S over the time of a fixed calibration kernel
run right before and right after it.  The host this was sized on runs in
fast and slow phases (about 1.8x apart, lasting from a second to minutes),
which the guest cannot see: CPU time slows down as much as wall time.  Over
25-second windows the mean wall time of one block of krein_matrix calls
spread 15%; its ratio to the adjacent calibration spread 2%.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import sys
import traceback

import numpy as np

import checks as ck
from tracer import Tracer

# Calibration kernel time on an idle core of the 2-core Xeon VM the
# benchmark was sized on.  Changing it rescales every reported time.
CALIBRATION_REF_S = 0.0065
_EIGVALSH = np.linalg.eigvalsh      # untraced, whatever the tracer wraps later


def _calibration_kernel():
    """A fixed mix like the library's hot paths: dict and tuple bookkeeping
    in Python, 2x2 blocks scattered into a 120x120 matrix, and a Hermitian
    eigensolve.  Uses no library code, so every commit measures the same."""
    table = {}
    acc = 0.0
    for i in range(3000):
        table[(i % 97, i % 13)] = i * 0.5
        acc += table[(i % 97, i % 13)]
    m = np.zeros((120, 120), dtype=complex)
    blocks = np.arange(800.0).reshape(200, 2, 2) / 800.0
    for i in range(200):
        idx = [i % 119, (i + 1) % 119]
        m[np.ix_(idx, idx)] += blocks[i] @ blocks[i].T
    h = m + m.conj().T + 240.0 * np.eye(120)
    for _ in range(3):
        _EIGVALSH(h)
    return acc


def calibration_s() -> float:
    t = time.perf_counter()
    _calibration_kernel()
    return time.perf_counter() - t


def to_reference_s(wall_s: float, calibration: float) -> float:
    return wall_s * CALIBRATION_REF_S / calibration


def solve_time(calls: dict) -> float:
    """Time of one sweep: the median time of every call of the sweep, summed."""
    return sum(statistics.median(times) for times in calls.values())


def _sweeps(workload, gs, inputs, budget_s, tracer=None, on_first_sweep=None):
    """Sweeps until the next one would overrun ``budget_s``; at least one.

    Returns the reference time and the wall time of every call by call
    name, the sweep outputs, and 1 if a sweep raised (which ends the loop),
    else 0.  ``on_first_sweep`` runs once, after the first sweep.
    """
    calls, wall, outputs = {}, {}, []

    def timed(name, fn, *args):
        before = calibration_s()
        t = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t
        calls.setdefault(name, []).append(to_reference_s(dt, (before + calibration_s()) / 2))
        wall.setdefault(name, []).append(dt)
        return out

    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.sweep = len(outputs)
        t = time.perf_counter()
        try:
            outputs.append(workload.sweep(gs, inputs, timed))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return calls, wall, outputs, 1
        if on_first_sweep is not None and len(outputs) == 1:
            on_first_sweep()
        now = time.perf_counter()
        if now - start + (now - t) > budget_s:
            return calls, wall, outputs, 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import graphspectra as gs
    import graphspectra.cli  # noqa: F401  (the CLI workload calls gs.cli.main)
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inputs = workload.build(gs, args.seed, args.workdir)
    setup_wall_s = time.perf_counter() - _T_START
    calibration_s()                      # first run pays one-off numpy set-up
    setup_s = to_reference_s(setup_wall_s, (calibration_s() + calibration_s()) / 2)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s,
                          "library": gs.__file__}))
        return 0

    # Peak memory of set-up plus one sweep: later sweeps only add the kept
    # outputs, which would make the figure depend on how many sweeps ran.
    peak_rss = []

    def read_peak_rss():
        peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    calls, wall, outputs, errors = _sweeps(workload, gs, inputs, untraced_budget,
                                           on_first_sweep=read_peak_rss)
    sweeps = len(outputs)

    layers, traced_calls = None, {}
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced_calls, traced_wall, traced_outputs, traced_errors = _sweeps(
                workload, gs, inputs, args.seconds / 2, tracer)
        outputs += traced_outputs
        errors += traced_errors
        scan_roots = oracle_roots = 0
        for out in traced_outputs:
            k, o = workload.roots(out)
            scan_roots += k
            oracle_roots += o or 0
        overhead = solve_time(traced_calls) - solve_time(calls)
        traced_sweeps = max(1, len(traced_outputs))
        sweep_wall_s = sum(map(sum, traced_wall.values())) / traced_sweeps
        layers = tracer.layer_metrics(traced_sweeps, sweep_wall_s, scan_roots,
                                      oracle_roots, overhead)
        tracer.save(os.path.join(args.workdir, "spans.npz"))

    if not peak_rss:                     # the first sweep raised
        read_peak_rss()
    t = time.perf_counter()
    reference = workload.reference(gs, inputs)
    reference_s = time.perf_counter() - t
    all_checks, passed_items = [], []
    for out in outputs:
        checks = workload.check(gs, inputs, out, reference)
        all_checks.extend(checks)
        passed_items.append(sum(1 for c in checks if c.status == ck.PASS
                                and c.check.startswith(workload.item_check)))

    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "library": gs.__file__,
        "solve_s": solve_time(calls),
        "solve_wall_s": solve_time(wall),
        "call_s": calls,
        "traced_call_s": traced_calls,
        "sweeps": sweeps,
        "traced_sweeps": len(outputs) - sweeps,
        "passed_items": passed_items[:sweeps],
        "peak_rss_mb": peak_rss[0],
        "reference_s": reference_s,
        "attempted_calls": sum(map(len, calls.values()))
                           + sum(map(len, traced_calls.values())) + errors,
        "failed_calls": errors + sum(workload.failed_calls(out) for out in outputs),
        "checks": ck.tally(all_checks),
        "failures": _distinct_failures(all_checks),
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


def _distinct_failures(checks) -> list:
    """Failed checks, once each: every sweep repeats the same output."""
    seen, out = set(), []
    for c in checks:
        if c.status != ck.FAIL:
            continue
        key = (c.instance, c.lam, c.check, repr(c.got), repr(c.want))
        if key not in seen:
            seen.add(key)
            out.append(c.to_dict())
    return out


if __name__ == "__main__":
    sys.exit(main())
