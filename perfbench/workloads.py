"""The three benchmark workloads: inputs from a seed, one sweep of timed
library calls, and the checks on a sweep's output.

A sweep is a fixed list of short user-level calls.  The benchmark repeats
sweeps and times every call on its own, so that the statistics can rest on
many short samples instead of a few long ones.

Inputs are plain data (tuples, dicts, JSON files), so every sweep builds
fresh graph and coupling objects and no library object carries state from
one sweep to the next.  Only ``graphspectra``'s public API is called.

Random tree lengths are rescaled to a fixed total length.  By Weyl's law
the number of eigenvalues in a window grows with the total length, so the
rescaling keeps the root count, and with it the work of one sweep,
nearly the same for every seed while the tree shape, the lengths and the
couplings still vary.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os

import numpy as np

import checks as ck

SCAN_EDGES = 60
SCAN_TOTAL_LENGTH = 75.0          # 60 edges of mean length 1.25
SCAN_WINDOW = (-1.0, 2.0)
SCAN_PARTS = 12                   # sub-windows of width 0.25, one call each
TREE_DEPTH = 7                    # 254 edges
DIRAC_EDGES = 8
DIRAC_TOTAL_LENGTH = 4.0
DIRAC_WINDOW = (-15.0, 15.0)
CHAIN = (0.5, 0.5, 40)            # geometric_chain(first, ratio, depth)
CHAIN_ALPHA = 0.3
CHAIN_WINDOW = (-1.0, 60.0)
STAR_LENGTHS = (1.0, 0.7, 1.3)    # Dirac star(3) with a close root pair
STAR_ALPHA = 0.5


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 20180611])


def _edge_tuples(g, lengths=None):
    lengths = [e.length for e in g.edges] if lengths is None else lengths
    return tuple((e.id, e.source, e.target, float(ell))
                 for e, ell in zip(g.edges, lengths))


def _rescaled(g, total: float):
    factor = total / sum(e.length for e in g.edges)
    return _edge_tuples(g, [e.length * factor for e in g.edges])


def _graph(gs, vertices, edges, model):
    return gs.MetricGraph(tuple(vertices),
                          tuple(gs.Edge(*e) for e in edges), model)


def _roots(result) -> ck.Roots:
    return ck.Roots(tuple(r.lam for r in result.roots),
                    tuple(r.multiplicity for r in result.roots))


def _oracle_samples(gs) -> int:
    return inspect.signature(gs.oracle_eigenvalues).parameters["samples"].default


def _grid_miss_confirmer(gs, g, coupling, window, cache: dict):
    """Oracle re-run on the grid cell (one cell of margin either side) of a
    root the full-window oracle missed; returns its nearest root there.
    Results are kept in ``cache``, since every sweep repeats the output."""
    samples = _oracle_samples(gs)
    step = (window[1] - window[0]) / (samples - 1)

    def confirm(lam):
        if lam not in cache:
            cell = ck.grid_cell(lam, window, samples)
            lo = max(window[0], window[0] + (cell - 1) * step)
            hi = min(window[1], window[0] + (cell + 2) * step)
            found = gs.oracle_eigenvalues(g, coupling, (lo, hi)).values
            cache[lam] = (float(found[np.argmin(np.abs(found - lam))])
                          if len(found) else None)
        return cache[lam]
    return confirm


class ScanTree:
    """Many-lambda path: scan_spectrum on a 60-edge random tree (120
    boundary coordinates), about 1,000 secular-matrix evaluations per sweep.
    The window is scanned as 12 sub-windows, one call each."""

    name = "scan_tree"
    item_check = "multiplicity"   # one per krein root

    def __init__(self):
        self.confirmed = {}

    def build(self, gs, seed: int, workdir: str) -> dict:
        g = gs.random_graph(seed, SCAN_EDGES)
        alpha = dict(zip(sorted(g.vertices),
                         _rng(seed).uniform(-1.0, 1.0, len(g.vertices)).tolist()))
        return {"seed": seed, "vertices": g.vertices,
                "edges": _rescaled(g, SCAN_TOTAL_LENGTH), "alpha": alpha}

    def _problem(self, gs, inputs):
        g = _graph(gs, inputs["vertices"], inputs["edges"], gs.Laplacian())
        return g, gs.delta_coupling(g, inputs["alpha"])

    def _scan(self, gs, inputs, window):
        g, coupling = self._problem(gs, inputs)
        return gs.scan_spectrum(g, coupling, window)

    def sweep(self, gs, inputs, timed):
        a, b = SCAN_WINDOW
        cuts = np.linspace(a, b, SCAN_PARTS + 1)
        parts = [timed(f"part{k:02d}", self._scan, gs, inputs, (lo, hi))
                 for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:]))]
        roots = [r for part in parts for r in part.roots]
        excluded = tuple(sorted({p for part in parts for p in part.excluded}))
        return ck.Roots(tuple(r.lam for r in roots),
                        tuple(r.multiplicity for r in roots)), excluded

    def reference(self, gs, inputs):
        g, coupling = self._problem(gs, inputs)
        return gs.oracle_eigenvalues(g, coupling, SCAN_WINDOW)

    def check(self, gs, inputs, output, reference) -> list:
        g, coupling = self._problem(gs, inputs)
        krein, excluded = output
        instance = f"random_graph({inputs['seed']},{SCAN_EDGES})"
        return ck.compare_routes(
            self.name, instance, krein, _roots(reference), excluded,
            _grid_miss_confirmer(gs, g, coupling, SCAN_WINDOW, self.confirmed),
            SCAN_WINDOW, _oracle_samples(gs))

    def roots(self, output):
        return len(output[0].values), None

    def failed_calls(self, output):
        return 0


class CriteriaTree:
    """One lambda-independent assembly on a large problem: the criteria
    pipeline on a depth-7 binary tree (254 edges), one call per stage."""

    name = "criteria_tree"
    item_check = "b("             # one per edge

    def build(self, gs, seed: int, workdir: str) -> dict:
        g = gs.binary_tree(TREE_DEPTH)
        rng = _rng(seed)
        lengths = rng.uniform(0.1, 2.0, len(g.edges)).tolist()
        alpha = dict(zip(sorted(g.vertices),
                         rng.uniform(0.0, 1.0, len(g.vertices)).tolist()))
        return {"seed": seed, "vertices": g.vertices,
                "edges": _edge_tuples(g, lengths), "alpha": alpha}

    def _regularize(self, gs, inputs):
        g = _graph(gs, inputs["vertices"], inputs["edges"], gs.Laplacian())
        coupling = gs.delta_coupling(g, inputs["alpha"])
        return g, coupling, gs.build_regularization(g, 0.0)

    def _criteria(self, gs, g, coupling, reg, dl):
        return (
            gs.check_self_adjointness(dl),
            gs.check_discreteness(dl, g, reg),
            gs.check_bounded_triplet_case(g),
            gs.check_mtilde_divergence(g, reg),
            gs.check_semibounded(g, coupling, reg, -1.0),
        )

    def sweep(self, gs, inputs, timed):
        g, coupling, reg = timed("build_regularization", self._regularize, gs, inputs)
        dl = timed("build_discrete", gs.build_discrete, g, coupling, reg)
        lmin = timed("lmin_matrix", gs.lmin_matrix, g, coupling, reg)
        verdicts = timed("criteria", self._criteria, gs, g, coupling, reg, dl)
        return dl, lmin, verdicts

    def reference(self, gs, inputs):
        return None

    def check(self, gs, inputs, output, reference) -> list:
        dl, lmin, verdicts = output
        instance = f"binary_tree({TREE_DEPTH}) seed {inputs['seed']}"
        out = ck.classical_delta_checks(self.name, instance, inputs["edges"],
                                        inputs["alpha"], dl.labels, dl.b, dl.c, dl.m)
        out.append(ck.residual_check(self.name, instance,
                                     gs.unitary_equivalence_residual(dl, lmin)))
        out.extend(ck.verdict_checks(self.name, instance, verdicts))
        return out

    def roots(self, output):
        return 0, None

    def failed_calls(self, output):
        return 0


def _problem_json(vertices, edges, alpha, model: dict) -> dict:
    return {"model": model,
            "vertices": [{"id": v, "alpha": alpha[v]} for v in vertices],
            "edges": [{"id": i, "from": s, "to": t, "length": ell}
                      for i, s, t, ell in edges]}


class DualRouteCli:
    """Both spectral routes through the CLI (``spectrum --oracle``): a Dirac
    random tree, the short-edge geometric chain, and a Dirac star with a
    close root pair."""

    name = "dual_route_cli"
    item_check = "multiplicity"

    def __init__(self):
        self.confirmed = {}

    def build(self, gs, seed: int, workdir: str) -> dict:
        dirac = {"type": "dirac", "c": 1.0}
        tree = gs.random_graph(seed, DIRAC_EDGES)
        tree_alpha = dict(zip(sorted(tree.vertices),
                              _rng(seed).uniform(-1.0, 1.0, len(tree.vertices)).tolist()))
        chain = gs.geometric_chain(*CHAIN)
        star = gs.star(3, lengths=list(STAR_LENGTHS))
        problems = [
            ("dirac-tree", _problem_json(tree.vertices,
                                         _rescaled(tree, DIRAC_TOTAL_LENGTH),
                                         tree_alpha, dirac), DIRAC_WINDOW),
            ("chain", _problem_json(chain.vertices, _edge_tuples(chain),
                                    {v: CHAIN_ALPHA for v in chain.vertices},
                                    {"type": "laplacian"}), CHAIN_WINDOW),
            ("dirac-star", _problem_json(star.vertices, _edge_tuples(star),
                                         {v: STAR_ALPHA for v in star.vertices},
                                         dirac), DIRAC_WINDOW),
        ]
        files = []
        for name, payload, window in problems:
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            files.append((name, path, window))
        return {"seed": seed, "files": files}

    def _spectrum(self, gs, path, window):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = gs.cli.main(["spectrum", path, "--min", repr(window[0]),
                                "--max", repr(window[1]), "--oracle"])
        return code, stdout.getvalue()

    def sweep(self, gs, inputs, timed):
        return [(name, *timed(name, self._spectrum, gs, path, window))
                for name, path, window in inputs["files"]]

    def reference(self, gs, inputs):
        return None

    def check(self, gs, inputs, output, reference) -> list:
        checks = []
        windows = {name: (path, window) for name, path, window in inputs["files"]}
        for name, code, text in output:
            instance = f"{name} seed {inputs['seed']}" if name == "dirac-tree" else name
            if code != 0:
                checks.append(ck.Check(self.name, instance, None, "exit-code",
                                       code, 0, ck.FAIL))
                continue
            krein, flags, oracle, poles = ck.parse_spectrum_csv(text)
            path, window = windows[name]
            problem = gs.load_problem(path)
            confirm = _grid_miss_confirmer(gs, problem.graph, problem.coupling(),
                                           window, self.confirmed.setdefault(name, {}))
            checks.extend(ck.compare_routes(
                self.name, instance, krein, oracle, poles, confirm, window,
                _oracle_samples(gs), flags=flags, short_edge=(name == "chain")))
            if name == "chain":
                checks.extend(ck.lowest_root_checks(
                    self.name, instance,
                    {"krein": krein.values, "oracle": oracle.values}))
        return checks

    def roots(self, output):
        krein = oracle = 0
        for _, code, text in output:
            if code == 0:
                k, _, o, _ = ck.parse_spectrum_csv(text)
                krein += len(k.values)
                oracle += len(o.values)
        return krein, oracle

    def failed_calls(self, output):
        return sum(1 for _, code, _ in output if code != 0)


WORKLOADS = {w.name: w for w in (ScanTree(), CriteriaTree(), DualRouteCli())}
