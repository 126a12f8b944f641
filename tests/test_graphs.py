from __future__ import annotations

import math
import re

import numpy as np
import pytest

from graphspectra import graphs as gr
from graphspectra.edges import Dirac, HalfLineLaplacian, Laplacian
from graphspectra.graphs import Edge, MetricGraph


def test_single_edge_incidences():
    g = MetricGraph(("a", "b"), (Edge("e", "a", "b", 1.0),))
    assert gr.validate_graph(g).ok
    inc = gr.incidence_sets(g)
    assert [(edge, t, 1 - 2 * t) for edge, t in inc["a"]] == [("e", 0, 1)]
    assert [(edge, t, 1 - 2 * t) for edge, t in inc["b"]] == [("e", 1, -1)]
    assert str(gr.validate_graph(g)) == str(gr.ValidationReport(())) == "valid"


def test_zero_length_rejected():
    g = MetricGraph(("a", "b"), (Edge("e", "a", "b", 0.0),))
    report = gr.validate_graph(g)
    assert not report.ok
    assert any(code == "nonpositive length" for code, _ in report.violations)


def test_three_star_enumeration():
    g = gr.star(3, lengths=[1.0, 2.0, 0.5])
    assert gr.validate_graph(g).ok
    inc = gr.incidence_sets(g)
    assert len(inc["center"]) == 3
    assert all(1 - 2 * t == 1 for _, t in inc["center"])
    assert len(g.vertices) == 4 and len(g.edges) == 3


def test_duplicate_ids_and_dangling_flagged():
    g = MetricGraph(("a", "b"), (Edge("e", "a", "b", 1.0), Edge("e", "a", "b", 1.0)))
    codes = {c for c, _ in gr.validate_graph(g).violations}
    assert "duplicate edge id" in codes
    g2 = MetricGraph(("a",), (Edge("e", "a", "ghost", 1.0),))
    codes = {c for c, _ in gr.validate_graph(g2).violations}
    assert "dangling endpoint" in codes


def test_isolated_vertex_flagged():
    g = MetricGraph(("a", "b", "c"), (Edge("e", "a", "b", 1.0),))
    codes = {c for c, _ in gr.validate_graph(g).violations}
    assert "isolated vertex" in codes


def test_half_line_rules():
    ok = MetricGraph(("a",), (Edge("h", "a", None, math.inf),))
    assert gr.validate_graph(ok).ok
    assert gr.incidence_sets(ok)["a"] == (("h", 0),)
    bad = MetricGraph(("a", "b"), (Edge("h", "a", "b", math.inf),))
    codes = {c for c, _ in gr.validate_graph(bad).violations}
    assert "half-line edge with target" in codes
    dirac = MetricGraph(("a",), (Edge("h", "a", None, math.inf),), Dirac(1.0))
    codes = {c for c, _ in gr.validate_graph(dirac).violations}
    assert "unsupported half-line" in codes


def test_partition_property_random_graphs():
    for seed in range(5):
        g = gr.random_graph(seed, 15)
        inc = gr.incidence_sets(g)
        assert inc == dict(g._index.incidence) and inc is not g._index.incidence
        all_entries = [c for entries in inc.values() for c in entries]
        assert len(all_entries) == len(set(all_entries))
        expected = {(e.id, t) for e in g.edges for t, _ in e.endpoints()}
        assert set(all_entries) == expected


def test_loop_edge_contributes_twice_to_one_vertex():
    g = MetricGraph(("a",), (Edge("loop", "a", "a", 1.0),))
    assert gr.validate_graph(g).ok
    inc = gr.incidence_sets(g)
    assert len(inc["a"]) == 2
    assert {t for _, t in inc["a"]} == {0, 1}


def test_star_combinatorics():
    g = gr.star(3, lengths=(1, 1, 1))
    assert len(g.vertices) == 4
    assert len(g.edges) == 3


def test_generated_edge_ids_sort_in_graph_order():
    # Edge ids are as wide as the count needs, so from 100 edges on sorting
    # by id still follows the path, or the star's list of edges.
    path = gr.chain([1.0] * 150)
    assert [e.id for e in path.edges][:2] == ["e000", "e001"]
    assert sorted(path.edges, key=lambda e: e.id) == list(path.edges)
    assert all(a.target == b.source for a, b in zip(path.edges, path.edges[1:]))
    assert sorted(gr.star(120).edges, key=lambda e: e.id) == list(gr.star(120).edges)
    # Up to 99 edges the ids keep two digits.
    assert [e.id for e in gr.chain([1.0] * 99).edges][-1] == "e98"
    assert [e.id for e in gr.star(3).edges] == ["e00", "e01", "e02"]


def test_tree_and_random_edge_ids_sort_in_generation_order():
    # binary_tree's ids widen past four digits from depth 13 on, and
    # random_graph's past three from 1,000 edges on.
    for g in (gr.binary_tree(13), gr.random_graph(1, 1200)):
        ids = [e.id for e in g.edges]
        assert sorted(ids) == ids
    assert gr.binary_tree(13).edges[0].id == "e00002"
    assert gr.random_graph(1, 1200).edges[0].id == "e0001"
    # Smaller graphs keep their ids.
    assert [e.id for e in gr.binary_tree(7).edges] == [f"e{k:04d}" for k in range(2, 256)]
    assert [e.id for e in gr.random_graph(1, 60).edges] == [f"e{k:03d}" for k in range(1, 61)]


def test_chain_decaying_lengths():
    g = gr.chain([2.0 ** -n for n in range(1, 11)])
    assert len(g.vertices) == 11
    assert sum(g.finite_lengths) < 1.0


def test_geometric_chain_metadata():
    g = gr.geometric_chain(0.5, 0.5, 10)
    assert g.truncation is not None
    assert g.truncation.kind == "geometric_chain"
    assert g.truncation.depth == 10
    assert [e.length for e in g.edges] == [0.5 * 0.5 ** n for n in range(10)]


def test_random_generator_deterministic():
    a = gr.random_graph(7, 20)
    b = gr.random_graph(7, 20)
    assert a == b
    c = gr.random_graph(8, 20)
    assert a != c


def test_binary_tree_counts():
    g = gr.binary_tree(3)
    assert len(g.edges) == 2 + 4 + 8
    assert len(g.vertices) == 1 + 2 + 4 + 8
    assert gr.validate_graph(g).ok


def test_generators_and_their_errors():
    g = gr.star(4, lengths=2.0)
    assert [e.length for e in g.edges] == [2.0] * 4
    for build, message in [
        (lambda: gr.chain([]), "chain needs at least one edge"),
        (lambda: gr.star(0), "star needs at least one edge"),
        (lambda: gr.star(3, lengths=[1.0, 2.0]), "need one length per star edge"),
        (lambda: gr.geometric_chain(1.0, 0.0, 3), "need first_length > 0, ratio > 0, depth >= 1"),
        (lambda: gr.binary_tree(0), "tree depth must be >= 1"),
        (lambda: gr.random_graph(1, 0), "need at least one edge"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_edge_model_for():
    g = MetricGraph(("a",), (Edge("h", "a", None, math.inf),))
    assert isinstance(gr.edge_model_for(g.model, g.edges[0]), HalfLineLaplacian)
    e = Edge("e", "a", "b", 1.0)
    assert isinstance(gr.edge_model_for(Laplacian(), e), Laplacian)
    # The index groups the edges by that model once per graph: the groups in
    # order of first appearance among the coordinates, which sort by edge id,
    # and each group's edges in that order, not in graph order.
    g = MetricGraph(("a", "b", "c"), (Edge("z", "a", "b", 1.0), Edge("h2", "a", None, math.inf),
                                      Edge("m", "b", "c", 0.7), Edge("a1", "c", None, math.inf)))
    assert [(m, at.tolist(), ell.tolist()) for m, at, ell in g._index.by_model] == [
        (HalfLineLaplacian(), [3, 1], [math.inf, math.inf]), (Laplacian(), [2, 0], [0.7, 1.0])]
    assert g._index.by_model is g._index.by_model
    dirac = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(2.0))
    assert [(m, at.tolist(), ell.tolist()) for m, at, ell in dirac._index.by_model] == [
        (Dirac(2.0), [0, 1, 2], [1.0, 0.7, 1.3])]


def test_alpha_map_forms():
    g = gr.star(2, lengths=1.0)
    assert gr.alpha_map(g, 1.5) == {v: 1.5 for v in g.vertices}
    ordered = sorted(g.vertices)
    seq = gr.alpha_map(g, [1.0, 2.0, 3.0])
    assert seq == dict(zip(ordered, [1.0, 2.0, 3.0]))
    assert gr.alpha_map(g, {"leaf01": 3, "center": 1, "leaf00": 2}) == seq
    with pytest.raises(ValueError, match="^need 3 alpha values, got 1$"):
        gr.alpha_map(g, [1.0])
    with pytest.raises(ValueError, match=r"^alpha missing for vertices \['leaf00', 'leaf01'\]$"):
        gr.alpha_map(g, {"center": 1.0})


def test_boundary_coordinates_deterministic_order():
    g = gr.star(3, lengths=1.0)
    coords = gr.boundary_coordinates(g)
    assert coords == tuple(sorted(coords))


def test_edge_model_for_half_line_under_dirac_raises():
    with pytest.raises(ValueError, match="half-line edges require the Laplacian model"):
        gr.edge_model_for(Dirac(1.0), Edge("h", "a", None, math.inf))


@pytest.mark.parametrize("edges", [
    (Edge("h", "a", None, math.inf),),
    (Edge("e", "a", "b", 1.0),),
])
def test_only_an_interval_model_can_be_a_graph_model(edges):
    from graphspectra.coupling import delta_coupling
    vertices = tuple(sorted({v for e in edges for _, v in e.endpoints()}))
    g = MetricGraph(vertices, edges, HalfLineLaplacian())
    codes = {c for c, _ in gr.validate_graph(g).violations}
    assert "unsupported model" in codes
    with pytest.raises(ValueError, match="invalid graph"):
        delta_coupling(g, {v: 0.0 for v in vertices})


def test_validation_reports_every_violation_in_order():
    # The partition check runs only when an edge id repeats; the report and
    # its order are those of one full pass.
    g = MetricGraph(("a", "b", "a", "z"),
                    (Edge("e", "a", "b", 1.0), Edge("e", "a", "x", 0.0), Edge("f", "b", None, 2.0),
                     Edge("h", "a", "b", math.inf), Edge("h", "b", None, math.inf)))
    assert gr.validate_graph(g).violations == (
        ("duplicate vertex id", "a"),
        ("duplicate edge id", "e"),
        ("nonpositive length", "edge e has length 0.0"),
        ("dangling endpoint", "edge e touches undeclared vertex x"),
        ("missing target", "finite edge f has no target"),
        ("dangling endpoint", "edge f touches undeclared vertex None"),
        ("half-line edge with target", "edge h is infinite but declares target b"),
        ("duplicate edge id", "h"),
        ("unpartitioned boundary index", "('e', 0) claimed by ['a', 'a']"),
        ("unpartitioned boundary index", "('e', 1) claimed by ['b', 'x']"),
        ("unpartitioned boundary index", "('h', 0) claimed by ['a', 'b']"),
        ("isolated vertex", "z"),
    )
