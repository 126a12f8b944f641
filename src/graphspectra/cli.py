"""Command-line front end.

Subcommands:
    validate <file>                              structural validation
    discrete <file> --lambda0 X --out OUT        weighted discrete data as JSON
    criteria <file> [--depth N] [--out OUT]      criterion report as JSON
    spectrum <file> --min A --max B [--tol T]    eigenvalues as CSV
             [--oracle] [--out OUT]
    weyl <file> --edge ID --lambda RE[,IM]       one edge response matrix

Exit codes: 0 success, 2 validation failure, 3 numeric failure,
64 usage errors.  Output is byte-identical for identical input and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace

from . import criteria as cr
from . import edges as em
from . import spectra as sp
from .discrete import build_discrete, discrete_to_json_dict
from .fileio import GraphFormatError, load_problem
from .graphs import TruncationInfo, edge_model_for, validate_graph
from .regularize import build_regularization
from .spectra import OracleConvergenceError

__all__ = ["main"]

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERIC = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and its messages go to the streams current at each call."""
    parser = _Parser(prog="graphspectra",
                     description="spectra of point interactions on metric graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a graph description file")
    p.add_argument("file")

    p = sub.add_parser("discrete", help="emit the weighted discrete data")
    p.add_argument("file")
    p.add_argument("--lambda0", type=float, default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("criteria", help="run the sufficient-condition checks")
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=None,
                   help="declare the file to be a depth-N truncation of an "
                        "infinite family (geometric chains are recognized)")
    p.add_argument("--out", default=None)

    p = sub.add_parser("spectrum", help="eigenvalues in a window")
    p.add_argument("file")
    p.add_argument("--min", dest="lo", type=float, required=True)
    p.add_argument("--max", dest="hi", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--oracle", action="store_true",
                   help="also run the RK4 transfer-matrix route and "
                        "cross-tag agreement")
    p.add_argument("--out", default=None)

    p = sub.add_parser("weyl", help="print one edge boundary response matrix")
    p.add_argument("file")
    p.add_argument("--edge", required=True)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="real part or re,im")
    return parser


def _write(text: str, out):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path):
    problem = load_problem(path)
    report = validate_graph(problem.graph)
    return problem, report


def _cmd_validate(args) -> int:
    problem, report = _load(args.file)
    g = problem.graph
    if report.ok:
        try:
            problem.coupling()
        except ValueError as exc:
            print(f"violation: coupling: {exc}")
            return EXIT_INVALID
        n_half = sum(1 for e in g.edges if e.is_half_line)
        print(f"valid: {len(g.vertices)} vertices, {len(g.edges)} edges"
              f" ({n_half} half-line), model {g.model.kind}")
        return EXIT_OK
    for code, detail in report.violations:
        print(f"violation: {code}: {detail}")
    return EXIT_INVALID


def _require_valid(report):
    if not report.ok:
        for code, detail in report.violations:
            sys.stderr.write(f"violation: {code}: {detail}\n")
        raise SystemExit(EXIT_INVALID)


def _cmd_discrete(args) -> int:
    problem, report = _load(args.file)
    _require_valid(report)
    lam0 = args.lambda0 if args.lambda0 is not None else problem.lambda0
    reg = build_regularization(problem.graph, lam0)
    dl = build_discrete(problem.graph, problem.coupling(), reg)
    payload = discrete_to_json_dict(dl)
    payload["lambda0"] = reg.lambda0
    _write(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
    return EXIT_OK


def _walks_one_path(g) -> bool:
    """True when the listed edges, in order, walk one simple path through
    every vertex (consecutive edges share an endpoint, |V| = |E| + 1)."""
    edges = g.edges
    if len(edges) < 2 or len(g.vertices) != len(edges) + 1:
        return False
    start = {edges[0].source, edges[0].target} - {edges[1].source, edges[1].target}
    if len(start) != 1:
        return False
    walk = [start.pop()]
    for e in edges:
        if walk[-1] not in (e.source, e.target):
            return False
        walk.append(e.target if e.source == walk[-1] else e.source)
    return len(set(walk)) == len(walk)


def _declare_truncation(g, depth):
    """Attach family metadata for --depth: a geometric chain is recognized
    when the file holds its first ``depth`` edges, listed in path order with
    one length ratio; anything else is an unknown infinite family."""
    lengths = g.finite_lengths
    info = TruncationInfo("unknown", depth)
    if len(lengths) == len(g.edges) == depth and _walks_one_path(g):
        ratios = [b / a for a, b in zip(lengths[:-1], lengths[1:])]
        if all(abs(r - ratios[0]) <= 1e-12 * max(1.0, ratios[0]) for r in ratios):
            info = TruncationInfo("geometric_chain", depth, lengths[0], ratios[0])
    return replace(g, truncation=info)


def _cmd_criteria(args) -> int:
    if args.depth is not None and args.depth < 1:
        sys.stderr.write(f"error: --depth must be at least 1, got {args.depth}\n")
        return EXIT_USAGE
    problem, report = _load(args.file)
    _require_valid(report)
    g = problem.graph
    if args.depth is not None:
        g = _declare_truncation(g, args.depth)
    coupling = problem.coupling()
    reg = build_regularization(g, problem.lambda0)
    dl = build_discrete(g, coupling, reg)
    results = [
        cr.check_self_adjointness(dl),
        cr.check_discreteness(dl, g, reg),
        cr.check_bounded_triplet_case(g),
        cr.check_mtilde_divergence(g, reg),
    ]
    ground = sp.decoupled_ground_state(g)
    cert_point = reg.lambda0 - 1.0 if reg.lambda0 < ground else ground - 1.0
    results.append(cr.check_semibounded(g, coupling, reg, cert_point))
    payload = [r.to_json_dict() for r in results]
    _write(json.dumps(payload, sort_keys=True, indent=1) + "\n", args.out)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    problem, report = _load(args.file)
    _require_valid(report)
    g = problem.graph
    coupling = problem.coupling()
    window = (args.lo, args.hi)
    scan = sp.scan_spectrum(g, coupling, window, tol=args.tol)
    results = [scan]
    if args.oracle:
        oracle = sp.oracle_eigenvalues(g, coupling, window, tol=args.tol)
        pairs, only_scan, _ = sp.match_spectra(
            scan.values, oracle.values, scan.excluded
        )
        matched = {x for x, _ in pairs}
        tagged = []
        for r in scan.roots:
            flag = "agrees-oracle" if r.lam in matched else (
                "no-oracle-match" if r.lam in only_scan else r.flag)
            tagged.append(sp.Root(r.lam, r.residual, r.multiplicity, r.method, flag))
        scan = sp.SpectrumResult(tuple(tagged), scan.excluded, scan.method,
                                 scan.window)
        results = [scan, oracle]
    _write(sp.spectrum_csv(results), args.out)
    return EXIT_OK


def _cmd_weyl(args) -> int:
    problem, report = _load(args.file)
    _require_valid(report)
    g = problem.graph
    parts = args.lam.split(",")
    try:
        if len(parts) > 2:
            raise ValueError(args.lam)
        lam = complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)
    except ValueError:
        sys.stderr.write(f"error: bad --lambda value {args.lam!r}\n")
        return EXIT_USAGE
    try:
        edge = g.edge(args.edge)
    except KeyError:
        sys.stderr.write(f"error: no edge {args.edge!r} in {args.file}\n")
        return EXIT_INVALID
    model = edge_model_for(g.model, edge)
    matrix = em.weyl(model, edge.length, lam if lam.imag else lam.real)
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
    print(json.dumps({"edge": args.edge, "lambda": [lam.real, lam.imag],
                      "matrix": rows}, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "discrete": _cmd_discrete,
    "criteria": _cmd_criteria,
    "spectrum": _cmd_spectrum,
    "weyl": _cmd_weyl,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    except GraphFormatError as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID
    except FileNotFoundError as exc:
        sys.stderr.write(f"cannot read file: {exc}\n")
        return EXIT_INVALID
    except (em.EdgeModelError, OracleConvergenceError, ValueError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
