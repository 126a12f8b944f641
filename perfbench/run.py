"""graphspectra benchmark.

    python3 perfbench/run.py --workload {scan_tree,criteria_tree,dual_route_cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the library is imported from
``src/`` of the working directory and nowhere else.  Each run starts fresh
worker processes (``worker.py``) with BLAS pinned to one thread: six that
only set up, three before and three after the timed one, and one that sets
up, times sweeps of library calls for ``--seconds`` seconds, and then checks
every output.  Times are in reference seconds (see ``worker.py``); the
report also prints wall seconds.

The report lists every failed check and the run record; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  ``attempted``/``failed`` count user-level
library calls and those that raised or exited non-zero; check counts are
in the report.  ``correct`` is false when a call failed or a check failed
without matching a defect of the baseline inventory (``checks.KNOWN_DEFECTS``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan_tree", "criteria_tree", "dual_route_cli")
SETUP_PROBES = 6
BLAS_THREADS = 1
RUN_LIMIT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def _worker(root, workdir, args, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=root, env=_worker_env(root), capture_output=True,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    library = os.path.realpath(result["library"])
    if not library.startswith(os.path.realpath(os.path.join(root, "src")) + os.sep):
        raise RuntimeError(f"worker imported graphspectra from {library}, "
                           f"not from this checkout")
    return result


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src", "graphspectra")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _versions(root: str) -> dict:
    code = ("import json, sys, numpy, scipy\n"
            "cfg = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
            " 'scipy': scipy.__version__, 'blas': cfg.get('name'),"
            " 'blas_version': cfg.get('version')}))")
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=_worker_env(root),
                         capture_output=True, text=True, timeout=10, check=True)
    return json.loads(out.stdout)


def _record(root, args, result, setups) -> dict:
    return {
        "commit": _commit(root),
        "source_sha256_16": _source_digest(root),
        **_versions(root),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sweeps": result["sweeps"],
        "traced_sweeps": result["traced_sweeps"],
        "calls_per_sweep": len(result["call_s"]),
        "setup_samples": len(setups),
        "reference_s": result["reference_s"],
    }


def _tail(times):
    """Highest percentile with at least ten samples beyond it, or None."""
    beyond = 10
    n = len(times)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, sorted(times)[n - beyond - 1]


def _sweep_times(result) -> list:
    calls = result["call_s"]
    return [sum(times[i] for times in calls.values()) for i in range(result["sweeps"])]


def _end_to_end(result, setups) -> dict:
    counts = result["checks"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "solve_s": (result["solve_s"], "s"),
        "passed_per_s": (statistics.median(result["passed_items"]) / result["solve_s"],
                         "1/s"),
        "pass_ratio": (counts["passed"] / max(1, counts["attempted"]), "1"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _report(args, result, record, setups, metrics, units):
    n = result["sweeps"]
    sweep_times = _sweep_times(result)
    counts = result["checks"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    if args.trace == 0:
        setup_wall = statistics.median(s["setup_wall_s"] for s in setups)
        samples = {"setup_s": f"median of {len(setups)} fresh-process set-ups; "
                              f"wall {setup_wall:.6g} s",
                   "solve_s": f"{len(result['call_s'])} calls per sweep, median of "
                              f"{n} sweeps for each call, summed; "
                              f"wall {result['solve_wall_s']:.6g} s",
                   "passed_per_s": f"{statistics.median(result['passed_items'])} "
                                   f"passed items per sweep / solve_s",
                   "pass_ratio": f"{counts['passed']} passed / {counts['attempted']} checked",
                   "peak_rss_mb": "ru_maxrss of the worker after set-up and one sweep"}
        for name, value in metrics.items():
            print(f"  {name:<14} {value:>12.6g} {units[name]:<4} ({samples[name]})")
        print(f"  sweep_s        {statistics.median(sweep_times):>12.6g} s    "
              f"(median of {n} whole sweeps; mean {statistics.fmean(sweep_times):.6g})")
        tail = _tail(sweep_times)
        if tail is None:
            print(f"  sweep_tail_s   not reported: {n} sweeps, at least 11 needed "
                  f"for ten samples beyond a percentile")
        else:
            print(f"  sweep_tail_s   {tail[1]:>12.6g} s    (p{tail[0]:.1f} of {n})")
    else:
        print(f"  {n} untraced and {result['traced_sweeps']} traced sweeps; "
              f"per-layer values are per traced sweep")
        for name, value in metrics.items():
            print(f"  {name:<44} {value:>12.6g} {units[name]}")
    ratio = counts["failed"] / max(1, counts["attempted"])
    print(f"  fail_ratio     {ratio:.6g} ({counts['failed']} failed / "
          f"{counts['attempted']} attempted checks; {counts['unchecked']} unchecked)")
    print(f"  calls          {result['attempted_calls']} attempted, "
          f"{result['failed_calls']} failed")
    for f in result["failures"]:
        lam = "-" if f["lam"] is None else repr(f["lam"])
        tag = f"known defect {f['defect']}" if f["defect"] else "NEW DEFECT"
        print(f"  failed check: {f['workload']} | {f['instance']} | lambda {lam} | "
              f"{f['check']} | got {f['got']!r} | want {f['want']!r} | {tag}")
    for tag in sorted({f["defect"] for f in result["failures"] if f["defect"]}):
        print(f"  known defect {tag}: {checks.KNOWN_DEFECTS[tag]}")
    print("record " + json.dumps(record, sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphspectra", "__init__.py")):
        sys.stderr.write("no graphspectra source tree at ./src/graphspectra; "
                         "run from the root of a source checkout\n")
        return 2

    workroot = os.path.join(root, ".perfbench_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=workroot)
    try:
        probes = SETUP_PROBES // 2 if args.trace == 0 else 0
        setups = [_worker(root, workdir, args, deadline, setup_only=True)
                  for _ in range(probes)]
        result = _worker(root, workdir, args, deadline)
        setups.append(result)
        setups += [_worker(root, workdir, args, deadline, setup_only=True)
                   for _ in range(probes)]
        if args.trace:
            shutil.copy(os.path.join(workdir, "spans.npz"),
                        os.path.join(workroot, f"spans-{args.workload}-{args.seed}.npz"))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["sweeps"] == 0:
        sys.stderr.write("benchmark failed: no sweep completed\n")
        return 1

    if args.trace == 0:
        both = _end_to_end(result, setups)
        metrics = {k: v for k, (v, _) in both.items()}
        units = {k: u for k, (_, u) in both.items()}
    else:
        units = tracer.metric_units()
        metrics = {k: result["layers"][k] for k in units}
    record = _record(root, args, result, setups)
    _report(args, result, record, setups, metrics, units)
    counts = result["checks"]
    correct = (result["failed_calls"] == 0 and counts["new_defects"] == 0
               and counts["attempted"] > 0)
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted_calls"],
        "failed": result["failed_calls"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
