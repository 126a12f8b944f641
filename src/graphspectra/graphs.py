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

import functools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .edges import EdgeModel, Laplacian

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
    """Directed edge; ``target=None`` together with infinite length is a half-line.

    The length is stored as a Python float, so that every edge evaluation
    rounds the same whatever real type it was given (an ``np.float64``
    length would turn Python's complex arithmetic into numpy's).
    """

    id: str
    source: str
    target: Optional[str]
    length: float

    def __post_init__(self):
        object.__setattr__(self, "length", float(self.length))

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
    """Vertex ids and edges, both kept as tuples, so that what is computed
    from them once per graph object (``_report``, ``_index``) stays true."""

    vertices: tuple
    edges: tuple
    model: EdgeModel = field(default_factory=Laplacian)
    truncation: Optional[TruncationInfo] = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))

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

    # cached_property writes the instance __dict__, which a frozen dataclass allows.
    @functools.cached_property
    def _report(self) -> ValidationReport:
        return _validate(self)

    @functools.cached_property
    def _index(self) -> _GraphIndex:
        """The graph's index; raises ValueError unless the graph is valid."""
        report = validate_graph(self)
        if not report.ok:
            raise ValueError(f"invalid graph: {report}")
        return _GraphIndex.of(self)


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


def _validate(g: MetricGraph) -> ValidationReport:
    """The structural checks of ``validate_graph``, run once per graph object."""
    bad = []
    if g.model.dim != 2:
        bad.append(("unsupported model", f"graph model {g.model.kind} is not an interval model"))
    seen_v = set()
    for v in g.vertices:
        if v in seen_v:
            bad.append(("duplicate vertex id", v))
        seen_v.add(v)
    seen_e, incident = set(), set()
    for e in g.edges:
        half = math.isinf(e.length)
        if e.id in seen_e:
            bad.append(("duplicate edge id", e.id))
        seen_e.add(e.id)
        if not e.length > 0:
            bad.append(("nonpositive length", f"edge {e.id} has length {e.length}"))
        if half and e.target is not None:
            bad.append(("half-line edge with target",
                        f"edge {e.id} is infinite but declares target {e.target}"))
        if not half and e.target is None:
            bad.append(("missing target", f"finite edge {e.id} has no target"))
        ends = (e.source,) if half else (e.source, e.target)
        for v in ends:
            if v not in seen_v:
                bad.append(("dangling endpoint", f"edge {e.id} touches undeclared vertex {v}"))
        incident.update(ends)
        if half and g.model._half_line is None:
            bad.append(("unsupported half-line",
                        f"edge {e.id}: half-line edges require the Laplacian model"))
    # Partition check: the multiset of all incidences must equal the set of
    # finite edge endpoints, each exactly once, which only a repeated edge
    # id can break.
    if len(seen_e) < len(g.edges):
        touched = {}
        for e in g.edges:
            for t, v in e.endpoints():
                touched.setdefault((e.id, t), []).append(v)
        bad.extend(("unpartitioned boundary index", f"{coord} claimed by {owners}")
                   for coord, owners in touched.items() if len(owners) != 1)
    bad.extend(("isolated vertex", v) for v in g.vertices if v not in incident)
    return ValidationReport(tuple(bad))


def validate_graph(g: MetricGraph) -> ValidationReport:
    """Report-valued structural validation; never raises.  The checks run
    once per graph object, which keeps the report."""
    return g._report


def _coordinates(edges):
    """[(edge id, t), ...] of ``edges`` sorted by (edge id, t), the vertex
    at each and the position of its edge in ``edges``."""
    coords, owners, at = [], [], []
    for k, e in sorted(enumerate(edges), key=lambda ke: ke[1].id):
        for t, v in e.endpoints():
            coords.append((e.id, t))
            owners.append(v)
            at.append(k)
    return tuple(coords), owners, at


@dataclass(frozen=True, eq=False)
class _GraphIndex:
    """What the coupling constructors, the compiles and the pole list read
    of a valid graph, built once per graph object (``MetricGraph._index``,
    next to its validation report ``_report``).

    Vertex positions refer to ``vertices``, the ids in sorted order (the
    order of the global basis).  ``edge`` and ``end`` give each coordinate's
    edge (its place in g.edges) and t.  ``source``, ``target`` and
    ``lengths`` list the finite edges in graph order, ``half`` the source
    of each half-line."""

    vertices: tuple             # vertex ids, sorted
    coords: tuple               # boundary coordinates (edge id, t), sorted
    incidence: dict             # vertex id -> its coordinates, sorted; in g.vertices order
    position: dict              # coordinate -> its position in coords
    edge: np.ndarray
    end: np.ndarray
    source: np.ndarray
    target: np.ndarray
    lengths: np.ndarray
    half: np.ndarray

    @classmethod
    def of(cls, g: MetricGraph) -> _GraphIndex:
        coords, owners, edge = _coordinates(g.edges)
        incidence = {v: [] for v in g.vertices}
        for c, v in zip(coords, owners):
            incidence[v].append(c)
        vertices = tuple(sorted(g.vertices))
        at = {v: i for i, v in enumerate(vertices)}
        finite = [e for e in g.edges if e.target is not None]
        return cls(vertices, coords, {v: tuple(c) for v, c in incidence.items()},
                   {c: p for p, c in enumerate(coords)},
                   np.array(edge, dtype=np.intp), np.array([t for _, t in coords], dtype=np.intp),
                   np.array([at[e.source] for e in finite], dtype=np.intp),
                   np.array([at[e.target] for e in finite], dtype=np.intp),
                   np.array([e.length for e in finite], dtype=float),
                   np.array([at[e.source] for e in g.edges if e.target is None], dtype=np.intp))

    @functools.cached_property
    def peeling(self):
        """The leaf-to-root elimination order of the finite edges if they form
        a forest, else None: (vertex, parent, edge) per vertex position, the
        edge by its place in ``source``; a root has parent len(vertices) and
        edge len(source)."""
        n, root_edge = len(self.vertices), len(self.source)
        links = [[] for _ in range(n)]
        for k, (u, v) in enumerate(zip(self.source.tolist(), self.target.tolist())):
            links[u].append((v, k))
            links[v].append((u, k))
        degree = [len(out) for out in links] + [0]
        queue, gone, steps = [v for v in range(n) if degree[v] <= 1], [False] * n, []
        for v in queue:  # grows while it is read
            gone[v] = True
            p, k = next((link for link in links[v] if not gone[link[0]]), (n, root_edge))
            steps.append((v, p, k))
            degree[p] -= 1
            if degree[p] == 1:
                queue.append(p)
        return steps if len(steps) == n else None


def incidence_sets(g: MetricGraph) -> dict:
    """Ordered incidence set per vertex; raises on invalid graphs."""
    return {v: tuple(IncidenceEntry(eid, t, 1 if t == 0 else -1) for eid, t in coords)
            for v, coords in g._index.incidence.items()}


def boundary_coordinates(g: MetricGraph):
    """Global coordinate list [(edge id, t), ...] sorted by (edge id, t)."""
    return _coordinates(g.edges)[0]


def degree(g: MetricGraph) -> dict:
    return {v: len(entries) for v, entries in incidence_sets(g).items()}


def edge_model_for(model: EdgeModel, edge: Edge) -> EdgeModel:
    """Per-edge operator: half-line edges of a Laplacian graph use the d=1 model."""
    if edge.is_half_line:
        if model._half_line is None:
            raise ValueError("half-line edges require the Laplacian model")
        return model._half_line
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
    leaves, ids = _ids("leaf", n), _ids("e", n)
    edges = tuple(
        Edge(ids[i], "center", leaves[i], float(lengths[i])) for i in range(n)
    )
    return MetricGraph(("center", *leaves), edges, model)


def chain(lengths: Sequence[float], model: EdgeModel = Laplacian(),
          truncation: Optional[TruncationInfo] = None) -> MetricGraph:
    """Path graph v00 - v01 - ... with the given edge lengths."""
    lengths = [float(x) for x in lengths]
    if not lengths:
        raise ValueError("chain needs at least one edge")
    vs, ids = _ids("v", len(lengths) + 1), _ids("e", len(lengths))
    edges = tuple(
        Edge(ids[i], vs[i], vs[i + 1], lengths[i]) for i in range(len(lengths))
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
    width = max(4, len(str(2 ** (depth + 1) - 1)))  # edge ids sort in generation order
    for level in range(depth):
        for j in range(2 ** level, 2 ** (level + 1)):
            for child in (2 * j, 2 * j + 1):
                vertices.append(f"n{child}")
                edges.append(Edge(f"e{child:0{width}d}", f"n{j}", f"n{child}",
                                  length * level_scale ** level))
    return MetricGraph(tuple(vertices), tuple(edges), model)


def random_graph(seed: int, n_edges: int, model: EdgeModel = Laplacian(),
                 length_range=(0.5, 2.0)) -> MetricGraph:
    """Random connected tree with ``n_edges`` edges; deterministic per seed."""
    if n_edges < 1:
        raise ValueError("need at least one edge")
    rng = np.random.default_rng(seed)
    vs = _ids("v", n_edges + 1)
    width = max(3, len(str(n_edges)))  # edge ids sort in generation order
    lo, hi = length_range
    edges = []
    for i in range(1, n_edges + 1):
        parent = int(rng.integers(0, i))
        edges.append(Edge(f"e{i:0{width}d}", vs[parent], vs[i],
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
