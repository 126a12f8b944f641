from __future__ import annotations

import json
import math

import numpy as np
import pytest

from graphspectra import fileio as fio
from graphspectra.edges import Dirac, Laplacian


def minimal(**overrides):
    data = {
        "model": {"type": "laplacian"},
        "vertices": [{"id": "a", "alpha": 0.5}, {"id": "b"}],
        "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}],
    }
    data.update(overrides)
    return data


def test_minimal_roundtrip():
    p = fio.parse_problem(minimal())
    assert isinstance(p.graph.model, Laplacian)
    assert p.graph.vertices == ("a", "b")
    assert p.alpha == {"a": 0.5, "b": 0.0}
    assert p.lambda0 is None
    coup = p.coupling()
    assert coup.flavor == "delta"


def test_dirac_model_and_lambda0():
    p = fio.parse_problem(minimal(model={"type": "dirac", "c": 2.0}, lambda0=1.5))
    assert p.graph.model == Dirac(2.0)
    assert p.lambda0 == 1.5
    # c^4, which the Dirac poles use, is finite up to c of about 1.158e77.
    assert fio.parse_problem(minimal(model={"type": "dirac", "c": 1e76})).graph.model == Dirac(1e76)


def test_infinite_edge_requires_null_target():
    data = minimal()
    data["vertices"] = [{"id": "a"}]
    data["edges"] = [{"id": "h", "from": "a", "to": None, "length": "inf"}]
    p = fio.parse_problem(data)
    assert p.graph.edges[0].is_half_line
    assert p.graph.edges[0].target is None


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(minimal(extra=1))
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(minimal(model={"type": "laplacian", "c": 1.0}))
    data = minimal()
    data["vertices"][0]["color"] = "red"
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(data)
    data = minimal()
    data["edges"][0]["weight"] = 2
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(data)


def test_bad_values_rejected():
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(minimal(model={"type": "dirac"}))
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(minimal(model={"type": "dirac", "c": -1.0}))
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(minimal(model={"type": "schroedinger"}))
    data = minimal()
    data["edges"][0]["length"] = "long"
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(data)
    data = minimal()
    data["edges"][0]["length"] = True
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(data)
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem({"model": {"type": "laplacian"}, "vertices": [], "edges": []})
    for data, message in [
        ([], "top level must be an object"),
        ({"model": {"type": "laplacian"}, "vertices": [{"id": "a"}]},
         "missing required key 'edges'"),
        (minimal(model={"c": 1.0}), '"model" must be an object with a "type"'),
        (minimal(model={"type": "dirac", "c": 1e78}), r"model\.c: .* finite c\^4, got 1e\+78"),
        (minimal(vertices=["a", "b"]), r"vertices\[0\] must be an object"),
        (minimal(vertices=[{"id": 1}, {"id": "b"}]), r'vertices\[0\] needs a string "id"'),
        (minimal(edges=[]), '"edges" must be a non-empty array'),
        (minimal(edges=[["e", "a", "b", 1.0]]), r"edges\[0\] must be an object"),
        (minimal(edges=[{"id": "e", "from": "a", "to": "b"}]), r"edges\[0\] needs 'length'"),
        (minimal(coupling={"vertices": {}}), '"coupling" must be an object with a "type"'),
        (minimal(coupling={"type": "robin"}), "unknown coupling type 'robin'"),
    ]:
        with pytest.raises(fio.GraphFormatError, match=message):
            fio.parse_problem(data)


@pytest.mark.parametrize("edge, key", [
    ({"id": "e", "from": None, "to": "b", "length": 1.0}, "from"),
    ({"id": 7, "from": 1, "to": "b", "length": 1.0}, "id"),
    ({"id": "e", "from": 1, "to": "b", "length": 1.0}, "from"),
    ({"id": "e", "from": "1", "to": 2, "length": 1.0}, "to"),
], ids=["null-from", "number-id", "number-from", "number-to"])
def test_edge_id_and_source_must_be_strings(edge, key):
    # Once read through str(), "from": null named a vertex "None" and
    # {"id": 7, "from": 1} loaded an edge "7" from vertex "1".
    data = minimal(vertices=[{"id": "1"}, {"id": "b"}], edges=[edge])
    with pytest.raises(fio.GraphFormatError, match=rf"edges\[0\]\.{key} must be a string"):
        fio.parse_problem(data)


NUMBER_FIELDS = {
    "alpha": lambda data, x: data["vertices"][0].update(alpha=x),
    "c": lambda data, x: data.update(model={"type": "dirac", "c": x}),
    "lambda0": lambda data, x: data.update(lambda0=x),
    "length": lambda data, x: data["edges"][0].update(length=x),
    "basis": lambda data, x: data.update(coupling={
        "type": "custom", "vertices": {"a": {"basis": [[x]], "matrix": [[0.0]]}}}),
}


@pytest.mark.parametrize("field", NUMBER_FIELDS)
@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "1e400", "10**400"])
def test_non_finite_numbers_rejected(field, text):
    data = minimal()
    NUMBER_FIELDS[field](data, json.loads(text))
    with pytest.raises(fio.GraphFormatError, match="finite real number"):
        fio.parse_problem(data)


def test_custom_coupling_with_complex_entries():
    data = minimal()
    data["coupling"] = {
        "type": "custom",
        "vertices": {
            "a": {"basis": [[[1.0, 0.0]]], "matrix": [[2.0]]},
            "b": {"basis": [[[0.0, 1.0]]], "matrix": [[[3.0, 0.0]]]},
        },
    }
    p = fio.parse_problem(data)
    coup = p.coupling()
    assert coup.flavor == "custom"
    assert np.allclose(coup.block("b").basis.ravel(), [1j])
    assert np.allclose(coup.block("b").matrix, [[3.0]])


def test_custom_coupling_rejects_malformed_complex():
    data = minimal()
    data["coupling"] = {
        "type": "custom",
        "vertices": {"a": {"basis": [[[1.0, 0.0, 0.0]]], "matrix": [[0.0]]}},
    }
    with pytest.raises(fio.GraphFormatError):
        fio.parse_problem(data)


@pytest.mark.parametrize("vertices,message", [
    (None, "coupling.vertices\" must be an object"),
    ([{"basis": [[1.0]], "matrix": [[0.0]]}], "coupling.vertices\" must be an object"),
    ({"a": {"basis": [1], "matrix": [[0.0]]}}, r"basis\[0\] must be an array"),
    ({"a": {"basis": [[1.0]], "matrix": [1]}}, r"matrix\[0\] must be an array"),
    ({"a": {"basis": [[1.0], 2.0], "matrix": [[0.0]]}}, r"basis\[1\] must be an array"),
    ({"a": {"basis": [[1.0], [1.0, 2.0]], "matrix": [[0.0]]}}, "basis rows must have equal"),
    ({"a": {"basis": [[1.0]], "matrix": [[0.0, 1.0], [0.0]]}}, "matrix rows must have equal"),
    ({"a": {"basis": [], "matrix": [[0.0]]}}, "basis must be a non-empty array of rows"),
    ({"a": [[1.0]]}, r"coupling\.vertices\[a\] must be an object"),
    ({"a": {"basis": [[1.0]]}}, r'coupling\.vertices\[a\] needs "basis" and "matrix"'),
], ids=["null", "list", "basis-row", "matrix-row", "second-row", "ragged-basis",
        "ragged-matrix", "empty-basis", "vertex-list", "no-matrix"])
def test_custom_coupling_rejects_malformed_vertex_data(vertices, message):
    data = minimal(coupling={"type": "custom", "vertices": vertices})
    with pytest.raises(fio.GraphFormatError, match=message):
        fio.parse_problem(data)


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(minimal()), encoding="utf-8")
    p = fio.load_problem(path)
    assert p.graph.edges[0].length == 1.0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(fio.GraphFormatError):
        fio.load_problem(bad)
