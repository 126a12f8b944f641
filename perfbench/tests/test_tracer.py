"""Tracer self-test: self-time arithmetic, every call path seen, and every
wrapped name restored afterwards."""

import contextlib
import io
import json
import os
import sys

import graphspectra as gs
import graphspectra.cli  # noqa: F401
import numpy as np

import run
import tracer as tr
from conftest import ROOT
from test_checks import _small_tree_inputs, untimed
from workloads import CriteriaTree


def test_self_time_subtracts_covered_child_time():
    # 0: [0, 10] with children 1: [1, 4] (child 2: [2, 3]), 3: [5, 7] and
    # 4: [6, 8] overlapping 3; 5: [9, 12] runs past its parent's end.
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 9.0]
    ends = [10.0, 4.0, 3.0, 7.0, 8.0, 12.0]
    parents = [-1, 0, 1, 0, 0, 0]
    selfs = tr.self_times(starts, ends, parents)
    # covered part of 0: [1, 4] + [5, 8] + [9, 10] = 7
    np.testing.assert_allclose(selfs, [3.0, 2.0, 1.0, 2.0, 2.0, 3.0])


def test_nested_wrappers_record_parents_and_sweeps():
    t = tr.Tracer()
    inner = t.span("inner", lambda x: x + 1)
    outer = t.span("outer", lambda x: inner(inner(x)))
    t.sweep = 3
    assert outer(1) == 3
    assert [t.names[i] for i in t.name_id] == ["outer", "inner", "inner"]
    assert list(t.parent) == [-1, 0, 0]
    assert list(t.sweep_id) == [3, 3, 3]
    assert all(e >= s for s, e in zip(t.start, t.end))


def _namespaces():
    spaces = [m for name, m in sys.modules.items() if m is not None
              and (name == "graphspectra" or name.startswith("graphspectra."))]
    spaces += [np.linalg, gs.coupling.VertexBlock]
    return {(id(ns), key): value for ns in spaces for key, value in vars(ns).items()}


def test_every_namespace_is_wrapped_then_restored(tmp_path):
    before = _namespaces()
    g = gs.star(3, lengths=[1.0, 0.7, 1.3])
    path = tmp_path / "star.json"
    path.write_text(json.dumps({
        "model": {"type": "laplacian"},
        "vertices": [{"id": v, "alpha": 0.0} for v in g.vertices],
        "edges": [{"id": e.id, "from": e.source, "to": e.target, "length": e.length}
                  for e in g.edges]}))
    t = tr.Tracer()
    with t.installed():
        assert gs.criteria.krein_matrix is not before[(id(gs.criteria), "krein_matrix")]
        assert gs.cli.build_discrete is gs.discrete.build_discrete
        CriteriaTree().sweep(gs, _small_tree_inputs(), untimed)
        with contextlib.redirect_stdout(io.StringIO()):
            assert gs.cli.main(["discrete", str(path)]) == 0
            assert gs.cli.main(["spectrum", str(path), "--min", "0", "--max", "10",
                                "--oracle"]) == 0
    after = _namespaces()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []

    def parents_of(name):
        nid = t.names.index(name)
        return {t.names[t.name_id[t.parent[i]]] if t.parent[i] >= 0 else None
                for i, n in enumerate(t.name_id) if n == nid}

    assert "criteria.check_semibounded" in parents_of("spectra.krein_matrix")
    assert "spectra.scan_spectrum" in parents_of("spectra.krein_matrix")
    assert "cli.main" in parents_of("discrete.build_discrete")
    assert "spectra.krein_matrix" in parents_of("coupling.VertexBlock.operator")
    assert "spectra.oracle_eigenvalues" in parents_of("linalg.det")
    assert list(t.layer_metrics(1, 1.0, 5, 5, 0.0)) == list(tr.metric_units())


def test_ratios_count_where_the_work_happens():
    g = gs.star(3, lengths=[1.0, 0.7, 1.3])
    coupling = gs.delta_coupling(g, gs.alpha_map(g, 0.0))
    t = tr.Tracer()
    with t.installed():
        scan = gs.scan_spectrum(g, coupling, (0.0, 10.0))
    metrics = t.layer_metrics(1, 1.0, len(scan.roots), 0, 0.0)
    krein_calls = metrics["spectra.krein_matrix.calls"]
    assert metrics["spectra.krein_matrix.weyl_per_call"] == 3.0
    assert metrics["spectra.scan.evals_per_root"] == krein_calls / len(scan.roots)
    assert metrics["spectra.oracle.det_per_root"] == 0.0
    assert metrics["edges.weyl.calls"] == 3 * krein_calls


def test_benchmark_definition_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tr.metric_units()
    result = {"solve_s": 1.0, "passed_items": [1], "peak_rss_mb": 1.0,
              "checks": {"passed": 1, "attempted": 1}}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == {k: unit for k, (_, unit) in run._end_to_end(result, [{"setup_s": 1.0}]).items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
