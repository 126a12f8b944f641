"""Graph-description JSON format.

Top-level keys: "model" ({"type": "laplacian"} or {"type": "dirac",
"c": number}), "vertices" (array of {"id": string, "alpha": number?}),
"edges" (array of {"id", "from", "to", "length"}), optional "coupling"
({"type": "delta"} or {"type": "custom", "vertices": {...}}), optional
"lambda0" (number).  Lengths are positive numbers or the string "inf";
an infinite edge must have "to": null since a half-line has no far
endpoint.  Complex numbers anywhere are 2-arrays [re, im].  Numbers must
be finite (not NaN, Infinity or 1e400); unknown keys are rejected anywhere.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from .coupling import VertexCoupling, custom_coupling, delta_coupling
from .edges import Dirac, EdgeModelError, Laplacian
from .graphs import Edge, MetricGraph

__all__ = ["GraphFormatError", "LoadedProblem", "load_problem", "parse_problem"]


class GraphFormatError(ValueError):
    """Malformed graph-description JSON."""


@dataclass(frozen=True)
class LoadedProblem:
    graph: MetricGraph
    alpha: dict
    coupling_spec: dict
    lambda0: Optional[float]

    def coupling(self) -> VertexCoupling:
        kind = self.coupling_spec.get("type", "delta")
        if kind == "delta":
            return delta_coupling(self.graph, self.alpha)
        per_vertex = {
            v: (entry["basis"], entry["matrix"])
            for v, entry in self.coupling_spec.get("vertices", {}).items()
        }
        return custom_coupling(self.graph, per_vertex)


def _reject_unknown(obj: dict, allowed, where: str):
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise GraphFormatError(f"unknown keys {unknown} in {where}")


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:  # NaN, inf and 10**400 fail
        raise GraphFormatError(f"{where} must be a finite real number, got {value!r}")
    return float(value)


def _complex_scalar(value, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, where))
    if isinstance(value, list) and len(value) == 2:
        return complex(_number(value[0], where), _number(value[1], where))
    raise GraphFormatError(f"{where} must be a number or [re, im], got {value!r}")


def _complex_matrix(value, where: str):
    if not isinstance(value, list) or not value:
        raise GraphFormatError(f"{where} must be a non-empty array of rows")
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise GraphFormatError(f"{where}[{i}] must be an array, got {row!r}")
        if len(row) != len(value[0]):
            raise GraphFormatError(f"{where} rows must have equal lengths")
    return [
        [_complex_scalar(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(value)
    ]


def parse_problem(data: dict) -> LoadedProblem:
    if not isinstance(data, dict):
        raise GraphFormatError("top level must be an object")
    _reject_unknown(data, {"model", "vertices", "edges", "coupling", "lambda0"},
                    "top level")
    for key in ("model", "vertices", "edges"):
        if key not in data:
            raise GraphFormatError(f"missing required key {key!r}")

    model_obj = data["model"]
    if not isinstance(model_obj, dict) or "type" not in model_obj:
        raise GraphFormatError('"model" must be an object with a "type"')
    mtype = model_obj["type"]
    if mtype == "laplacian":
        _reject_unknown(model_obj, {"type"}, "model")
        model = Laplacian()
    elif mtype == "dirac":
        _reject_unknown(model_obj, {"type", "c"}, "model")
        if "c" not in model_obj:
            raise GraphFormatError('dirac model needs "c"')
        try:
            model = Dirac(_number(model_obj["c"], "model.c"))
        except EdgeModelError as exc:
            raise GraphFormatError(f"model.c: {exc}") from exc
    else:
        raise GraphFormatError(f"unknown model type {mtype!r}")

    vertices, alpha = [], {}
    if not isinstance(data["vertices"], list) or not data["vertices"]:
        raise GraphFormatError('"vertices" must be a non-empty array')
    for i, vobj in enumerate(data["vertices"]):
        if not isinstance(vobj, dict):
            raise GraphFormatError(f"vertices[{i}] must be an object")
        _reject_unknown(vobj, {"id", "alpha"}, f"vertices[{i}]")
        if "id" not in vobj or not isinstance(vobj["id"], str):
            raise GraphFormatError(f'vertices[{i}] needs a string "id"')
        vertices.append(vobj["id"])
        alpha[vobj["id"]] = _number(vobj.get("alpha", 0.0), f"vertices[{i}].alpha")

    edges = []
    if not isinstance(data["edges"], list) or not data["edges"]:
        raise GraphFormatError('"edges" must be a non-empty array')
    for i, eobj in enumerate(data["edges"]):
        if not isinstance(eobj, dict):
            raise GraphFormatError(f"edges[{i}] must be an object")
        _reject_unknown(eobj, {"id", "from", "to", "length"}, f"edges[{i}]")
        for key in ("id", "from", "length"):
            if key not in eobj:
                raise GraphFormatError(f"edges[{i}] needs {key!r}")
        for key in ("id", "from"):
            if not isinstance(eobj[key], str):
                raise GraphFormatError(f"edges[{i}].{key} must be a string")
        length = eobj["length"]
        if length == "inf":
            length = math.inf
        else:
            length = _number(length, f"edges[{i}].length")
        target = eobj.get("to")
        if target is not None and not isinstance(target, str):
            raise GraphFormatError(f'edges[{i}].to must be a string or null')
        edges.append(Edge(eobj["id"], eobj["from"], target, length))

    coupling_spec = data.get("coupling", {"type": "delta"})
    if not isinstance(coupling_spec, dict) or "type" not in coupling_spec:
        raise GraphFormatError('"coupling" must be an object with a "type"')
    if coupling_spec["type"] == "delta":
        _reject_unknown(coupling_spec, {"type"}, "coupling")
    elif coupling_spec["type"] == "custom":
        _reject_unknown(coupling_spec, {"type", "vertices"}, "coupling")
        per_vertex = coupling_spec.get("vertices", {})
        if not isinstance(per_vertex, dict):
            raise GraphFormatError('"coupling.vertices" must be an object')
        parsed = {}
        for v, entry in per_vertex.items():
            if not isinstance(entry, dict):
                raise GraphFormatError(f"coupling.vertices[{v}] must be an object")
            _reject_unknown(entry, {"basis", "matrix"}, f"coupling.vertices[{v}]")
            if "basis" not in entry or "matrix" not in entry:
                raise GraphFormatError(
                    f'coupling.vertices[{v}] needs "basis" and "matrix"'
                )
            parsed[v] = {
                "basis": _complex_matrix(entry["basis"], f"coupling.vertices[{v}].basis"),
                "matrix": _complex_matrix(entry["matrix"], f"coupling.vertices[{v}].matrix"),
            }
        coupling_spec = {"type": "custom", "vertices": parsed}
    else:
        raise GraphFormatError(f"unknown coupling type {coupling_spec['type']!r}")

    lambda0 = None
    if "lambda0" in data:
        lambda0 = _number(data["lambda0"], "lambda0")

    graph = MetricGraph(tuple(vertices), tuple(edges), model)
    return LoadedProblem(graph, alpha, coupling_spec, lambda0)


def load_problem(path) -> LoadedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"invalid JSON: {exc}") from exc
    return parse_problem(data)
