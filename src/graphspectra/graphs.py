"""Metric-graph data model: validation, incidence bookkeeping and generators.

A graph is a set of vertex ids plus directed edges with positive lengths
(``math.inf`` marks a half-line edge, which has no far endpoint).  Every
finite edge endpoint produces one boundary coordinate (edge, t) with
t = 0 at the source and t = 1 at the target; the coordinate carries the
sign +1 at t = 0 and -1 at t = 1.  The per-vertex incidence sets
partition the set of all boundary coordinates.

All orderings are deterministic: edge ids and vertex ids sort
lexicographically, coordinates sort by (edge id, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .edges import Dirac, EdgeModel, HalfLineLaplacian, Laplacian

__all__ = [
    "Edge",
    "IncidenceEntry",
    "TruncationInfo",
    "MetricGraph",
    "ValidationReport",
    "validate_graph",
    "incidence_sets",
    "boundary_coordinates",
    "degree",
    "edge_model_for",
    "generate",
    "star",
    "chain",
    "geometric_chain",
    "binary_tree",
    "random_graph",
    "interval",
    "alpha_map",
]


@dataclass(frozen=True)
class Edge:
    """Directed edge; ``target=None`` together with infinite length is a half-line."""

    id: str
    source: str
    target: Optional[str]
    length: float

    @property
    def is_half_line(self) -> bool:
        return math.isinf(self.length)

    def endpoints(self):
        """(t, vertex) pairs that contribute boundary coordinates."""
        if self.is_half_line:
            return ((0, self.source),)
        return ((0, self.source), (1, self.target))


@dataclass(frozen=True)
class IncidenceEntry:
    edge: str
    endpoint: int  # 0 = source, 1 = target
    sign: int      # +1 at endpoint 0, -1 at endpoint 1

    @property
    def coordinate(self):
        return (self.edge, self.endpoint)


@dataclass(frozen=True)
class TruncationInfo:
    """Marks a graph as the finite truncation of an infinite generator family.

    ``kind="geometric_chain"`` means chain edges with lengths
    first_length * ratio**n for n = 0, 1, 2, ... continuing forever; the
    stored graph holds the first ``depth`` of them.
    """

    kind: str
    depth: int
    first_length: float = 0.0
    ratio: float = 0.0


@dataclass(frozen=True)
class MetricGraph:
    vertices: tuple
    edges: tuple
    model: EdgeModel = field(default_factory=Laplacian)
    truncation: Optional[TruncationInfo] = None

    def edge(self, edge_id: str) -> Edge:
        for e in self.edges:
            if e.id == edge_id:
                return e
        raise KeyError(f"no edge {edge_id!r}")

    @property
    def finite_lengths(self):
        return [e.length for e in self.edges if not e.is_half_line]

    @property
    def has_half_line(self) -> bool:
        return any(e.is_half_line for e in self.edges)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(f"{code}: {detail}" for code, detail in self.violations)


def validate_graph(g: MetricGraph) -> ValidationReport:
    """Report-valued structural validation; never raises."""
    bad = []
    seen_v = set()
    for v in g.vertices:
        if v in seen_v:
            bad.append(("duplicate vertex id", v))
        seen_v.add(v)
    seen_e = set()
    for e in g.edges:
        if e.id in seen_e:
            bad.append(("duplicate edge id", e.id))
        seen_e.add(e.id)
        if not e.length > 0:
            bad.append(("nonpositive length", f"edge {e.id} has length {e.length}"))
        if e.is_half_line and e.target is not None:
            bad.append(("half-line edge with target",
                        f"edge {e.id} is infinite but declares target {e.target}"))
        if not e.is_half_line and e.target is None:
            bad.append(("missing target", f"finite edge {e.id} has no target"))
        for _, v in e.endpoints():
            if v not in seen_v:
                bad.append(("dangling endpoint", f"edge {e.id} touches undeclared vertex {v}"))
        if e.is_half_line and isinstance(g.model, Dirac):
            bad.append(("unsupported half-line",
                        f"edge {e.id}: half-line edges require the Laplacian model"))
    # Partition check: the multiset of all incidences must equal the set of
    # finite edge endpoints, each exactly once.
    touched = {}
    for e in g.edges:
        for t, v in e.endpoints():
            touched.setdefault((e.id, t), []).append(v)
    for coord, owners in touched.items():
        if len(owners) != 1:
            bad.append(("unpartitioned boundary index", f"{coord} claimed by {owners}"))
    incident = {v for owners in touched.values() for v in owners}
    for v in g.vertices:
        if v not in incident:
            bad.append(("isolated vertex", v))
    return ValidationReport(tuple(bad))


def incidence_sets(g: MetricGraph) -> dict:
    """Ordered incidence set per vertex; raises on invalid graphs."""
    report = validate_graph(g)
    if not report.ok:
        raise ValueError(f"invalid graph: {report}")
    out = {v: [] for v in g.vertices}
    for e in g.edges:
        for t, v in e.endpoints():
            out[v].append(IncidenceEntry(e.id, t, 1 if t == 0 else -1))
    return {
        v: tuple(sorted(entries, key=lambda i: (i.edge, i.endpoint)))
        for v, entries in out.items()
    }


def boundary_coordinates(g: MetricGraph):
    """Global coordinate list [(edge id, t), ...] sorted by (edge id, t)."""
    coords = []
    for e in sorted(g.edges, key=lambda e: e.id):
        for t, _ in e.endpoints():
            coords.append((e.id, t))
    return tuple(coords)


def degree(g: MetricGraph) -> dict:
    return {v: len(entries) for v, entries in incidence_sets(g).items()}


def edge_model_for(model: EdgeModel, edge: Edge) -> EdgeModel:
    """Per-edge operator: half-line edges of a Laplacian graph use the d=1 model."""
    if edge.is_half_line:
        if not isinstance(model, Laplacian):
            raise ValueError("half-line edges require the Laplacian model")
        return HalfLineLaplacian()
    return model


def _ids(prefix: str, n: int):
    width = max(2, len(str(n)))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def star(n: int, lengths=1.0, model: EdgeModel = Laplacian()) -> MetricGraph:
    """Star with ``n`` edges from a center vertex to ``n`` leaves."""
    if n < 1:
        raise ValueError("star needs at least one edge")
    if np.isscalar(lengths):
        lengths = [float(lengths)] * n
    if len(lengths) != n:
        raise ValueError("need one length per star edge")
    leaves = _ids("leaf", n)
    edges = tuple(
        Edge(f"e{i:02d}", "center", leaves[i], float(lengths[i])) for i in range(n)
    )
    return MetricGraph(("center", *leaves), edges, model)


def chain(lengths: Sequence[float], model: EdgeModel = Laplacian(),
          truncation: Optional[TruncationInfo] = None) -> MetricGraph:
    """Path graph v00 - v01 - ... with the given edge lengths."""
    lengths = [float(x) for x in lengths]
    if not lengths:
        raise ValueError("chain needs at least one edge")
    vs = _ids("v", len(lengths) + 1)
    edges = tuple(
        Edge(f"e{i:02d}", vs[i], vs[i + 1], lengths[i]) for i in range(len(lengths))
    )
    return MetricGraph(tuple(vs), edges, model, truncation)


def geometric_chain(first_length: float, ratio: float, depth: int,
                    model: EdgeModel = Laplacian()) -> MetricGraph:
    """Chain with lengths first_length * ratio**n, n = 0..depth-1.

    The result carries truncation metadata so the criteria checks can use
    closed-form geometric sums for the full family.
    """
    if not (first_length > 0 and 0 < ratio and depth >= 1):
        raise ValueError("need first_length > 0, ratio > 0, depth >= 1")
    lengths = [first_length * ratio ** n for n in range(depth)]
    return chain(lengths, model,
                 TruncationInfo("geometric_chain", depth, first_length, ratio))


def binary_tree(depth: int, length: float = 1.0, level_scale: float = 1.0,
                model: EdgeModel = Laplacian()) -> MetricGraph:
    """Full binary tree with ``depth`` edge levels; level k edges have
    length ``length * level_scale**k``."""
    if depth < 1:
        raise ValueError("tree depth must be >= 1")
    vertices = ["n1"]
    edges = []
    for level in range(depth):
        for j in range(2 ** level, 2 ** (level + 1)):
            for child in (2 * j, 2 * j + 1):
                vertices.append(f"n{child}")
                edges.append(Edge(f"e{child:04d}", f"n{j}", f"n{child}",
                                  length * level_scale ** level))
    return MetricGraph(tuple(vertices), tuple(edges), model)


def random_graph(seed: int, n_edges: int, model: EdgeModel = Laplacian(),
                 length_range=(0.5, 2.0)) -> MetricGraph:
    """Random connected tree with ``n_edges`` edges; deterministic per seed."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    rng = np.random.default_rng(seed)
    vs = _ids("v", n_edges + 1)
    lo, hi = length_range
    edges = []
    for i in range(1, n_edges + 1):
        parent = int(rng.integers(0, i))
        edges.append(Edge(f"e{i:03d}", vs[parent], vs[i],
                          float(rng.uniform(lo, hi))))
    return MetricGraph(tuple(vs), tuple(edges), model)


def interval(length: float = 1.0, model: EdgeModel = Laplacian()) -> MetricGraph:
    """Single edge a -> b."""
    return MetricGraph(("a", "b"), (Edge("e", "a", "b", float(length)),), model)


_FAMILIES = {
    "star": star,
    "chain": chain,
    "geometric_chain": geometric_chain,
    "binary_tree": binary_tree,
    "random": random_graph,
    "interval": interval,
}


def generate(family: str, **params) -> MetricGraph:
    """Dispatch to the named generator (star, chain, geometric_chain,
    binary_tree, random, interval)."""
    try:
        builder = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; options: {sorted(_FAMILIES)}")
    return builder(**params)


def alpha_map(g: MetricGraph, values) -> Mapping[str, float]:
    """Convenience: spread scalar / sequence / mapping alpha data over vertices.

    Sequences are assigned in lexicographic vertex order.
    """
    ordered = sorted(g.vertices)
    if np.isscalar(values):
        return {v: float(values) for v in ordered}
    if isinstance(values, Mapping):
        missing = [v for v in ordered if v not in values]
        if missing:
            raise ValueError(f"alpha missing for vertices {missing}")
        return {v: float(values[v]) for v in ordered}
    values = list(values)
    if len(values) != len(ordered):
        raise ValueError(f"need {len(ordered)} alpha values, got {len(values)}")
    return dict(zip(ordered, map(float, values)))
