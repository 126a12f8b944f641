"""Per-layer tracing from outside the library.

``Tracer.installed()`` replaces the public functions listed in ``TARGETS``
with wrappers in every namespace that holds them (names imported by value,
such as ``criteria.krein_matrix`` or ``cli.build_discrete``, and the package
namespace ``graphspectra`` itself), and puts every original back on exit.
Each wrapped call records a span: name, start, end, parent span and
sweep id.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute, report a call count)
TARGETS = (
    ("edges.weyl", "graphspectra.edges", "weyl", True),
    ("edges.pole_distance", "graphspectra.edges", "pole_distance", True),
    ("edges.weyl_derivative", "graphspectra.edges", "weyl_derivative", True),
    ("edges.decoupled_eigenvalues", "graphspectra.edges", "decoupled_eigenvalues", True),
    ("graphs.incidence_sets", "graphspectra.graphs", "incidence_sets", True),
    ("graphs.validate_graph", "graphspectra.graphs", "validate_graph", True),
    ("graphs.boundary_coordinates", "graphspectra.graphs", "boundary_coordinates", True),
    ("coupling.global_basis", "graphspectra.coupling", "global_basis", True),
    ("coupling.VertexBlock.operator", "graphspectra.coupling", "VertexBlock.operator", True),
    ("spectra.krein_matrix", "graphspectra.spectra", "krein_matrix", True),
    ("linalg.eigvalsh", "numpy.linalg", "eigvalsh", True),
    ("linalg.det", "numpy.linalg", "det", True),
    ("linalg.svd", "numpy.linalg", "svd", True),
    ("spectra.scan_spectrum", "graphspectra.spectra", "scan_spectrum", False),
    ("spectra.oracle_eigenvalues", "graphspectra.spectra", "oracle_eigenvalues", False),
    ("regularize.build_regularization", "graphspectra.regularize", "build_regularization", False),
    ("discrete.build_discrete", "graphspectra.discrete", "build_discrete", False),
    ("discrete.lmin_matrix", "graphspectra.discrete", "lmin_matrix", False),
    ("discrete.weighted_degree", "graphspectra.discrete", "weighted_degree", False),
    ("criteria.check_self_adjointness", "graphspectra.criteria", "check_self_adjointness", False),
    ("criteria.check_discreteness", "graphspectra.criteria", "check_discreteness", False),
    ("criteria.check_bounded_triplet_case", "graphspectra.criteria", "check_bounded_triplet_case", False),
    ("criteria.check_mtilde_divergence", "graphspectra.criteria", "check_mtilde_divergence", False),
    ("criteria.check_semibounded", "graphspectra.criteria", "check_semibounded", False),
    ("fileio.load_problem", "graphspectra.fileio", "load_problem", False),
    ("spectra.match_spectra", "graphspectra.spectra", "match_spectra", False),
    ("spectra.spectrum_csv", "graphspectra.spectra", "spectrum_csv", False),
    ("cli.main", "graphspectra.cli", "main", False),
)

# Ratios measured where the work happens, the traced wall time of one sweep
# (a layer's self time is its self_share times this), and the cost of
# tracing itself.
DERIVED = (
    ("spectra.krein_matrix.weyl_per_call", "count"),
    ("spectra.scan.evals_per_root", "count"),
    ("spectra.oracle.det_per_root", "count"),
    ("trace.sweep_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order.

    Self time is given as a share of the traced sweep: a layer a workload
    never calls reads exactly 0 on every run, which is a fact about the
    workload and not a time that was measured."""
    out = {}
    for name, _, _, with_calls in TARGETS:
        if with_calls:
            out[f"{name}.calls"] = "count"
        out[f"{name}.self_share"] = "1"
    out.update(DERIVED)
    return out


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = ends - starts
    children = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        intervals = sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids)
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def _graphspectra_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphspectra" or name.startswith("graphspectra."))]


class Tracer:
    def __init__(self):
        self.names = []                 # name table; spans refer to it by index
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.sweep_id = array("i")
        self.sweep = 0
        self._stack = [-1]
        self._patched = []              # (namespace, attribute, original)

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span named ``name``."""
        nid = self._intern(name)
        name_id, start, end, parent, sweep_id = (
            self.name_id, self.start, self.end, self.parent, self.sweep_id)
        stack, clock, tracer = self._stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            sweep_id.append(tracer.sweep)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
        return wrapper

    def _patch(self, namespace, attribute, wrapper):
        self._patched.append((namespace, attribute, namespace.__dict__[attribute]))
        setattr(namespace, attribute, wrapper)

    @contextlib.contextmanager
    def installed(self):
        try:
            for name, module, attribute, _ in TARGETS:
                owner = importlib.import_module(module)
                if "." in attribute:
                    cls_name, attribute = attribute.split(".")
                    owner = getattr(owner, cls_name)
                original = owner.__dict__[attribute]
                wrapper = self.span(name, original)
                self._patch(owner, attribute, wrapper)
                for mod in _graphspectra_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            yield self
        finally:
            while self._patched:
                namespace, attribute, original = self._patched.pop()
                setattr(namespace, attribute, original)

    def save(self, path: str):
        """Write every span (and the name table) as compressed arrays."""
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.asarray(self.name_id),
                            start=np.asarray(self.start), end=np.asarray(self.end),
                            parent=np.asarray(self.parent),
                            sweep=np.asarray(self.sweep_id))

    def _under(self, child: str, ancestor: str, direct: bool = False) -> int:
        """Spans named ``child`` with a span named ``ancestor`` above them
        (as their parent only, when ``direct``)."""
        if child not in self.names or ancestor not in self.names:
            return 0
        cid, aid = self.names.index(child), self.names.index(ancestor)
        count = 0
        for i, nid in enumerate(self.name_id):
            if nid != cid:
                continue
            p = self.parent[i]
            while p >= 0:
                if self.name_id[p] == aid:
                    count += 1
                    break
                if direct:
                    break
                p = self.parent[p]
        return count

    def layer_metrics(self, sweeps: int, sweep_wall_s: float, scan_roots: int,
                      oracle_roots: int, overhead_s: float) -> dict:
        """Per-sweep calls and self-time share of every target, and the ratios.
        ``sweep_wall_s`` is the traced wall time of one sweep's calls."""
        ids = np.asarray(self.name_id)
        selfs = self_times(self.start, self.end, self.parent)
        calls = np.bincount(ids, minlength=len(self.names))
        self_s = np.bincount(ids, weights=selfs, minlength=len(self.names))
        out = {}

        def ratio(num, den):
            return num / den if den else 0.0

        for name, _, _, with_calls in TARGETS:
            i = self.names.index(name) if name in self.names else None
            if with_calls:
                out[f"{name}.calls"] = 0.0 if i is None else calls[i] / sweeps
            out[f"{name}.self_share"] = (0.0 if i is None else
                                         ratio(self_s[i] / sweeps, sweep_wall_s))

        out["spectra.krein_matrix.weyl_per_call"] = ratio(
            self._under("edges.weyl", "spectra.krein_matrix", direct=True),
            out["spectra.krein_matrix.calls"] * sweeps)
        out["spectra.scan.evals_per_root"] = ratio(
            self._under("spectra.krein_matrix", "spectra.scan_spectrum"), scan_roots)
        out["spectra.oracle.det_per_root"] = ratio(
            self._under("linalg.det", "spectra.oracle_eigenvalues"), oracle_roots)
        out["trace.sweep_wall_s"] = sweep_wall_s
        out["trace.overhead_s"] = overhead_s
        return {k: float(v) for k, v in out.items()}
