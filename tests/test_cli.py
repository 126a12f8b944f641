from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import graphspectra
from graphspectra.cli import main


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def package_env():
    """The environment of a subprocess that imports this graphspectra."""
    src = os.path.dirname(os.path.dirname(graphspectra.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def star3(alpha=(0.0, 0.0, 0.0, 0.0), model=None):
    return {
        "model": model or {"type": "laplacian"},
        "vertices": [
            {"id": "center", "alpha": alpha[0]},
            {"id": "leaf00", "alpha": alpha[1]},
            {"id": "leaf01", "alpha": alpha[2]},
            {"id": "leaf02", "alpha": alpha[3]},
        ],
        "edges": [
            {"id": "e00", "from": "center", "to": "leaf00", "length": 1.0},
            {"id": "e01", "from": "center", "to": "leaf01", "length": 1.0},
            {"id": "e02", "from": "center", "to": "leaf02", "length": 1.0},
        ],
    }


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3())
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_validate_failure_exit_code(tmp_path, capsys):
    bad = star3()
    bad["edges"][0]["length"] = -1.0
    path = write(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 2
    assert "nonpositive length" in capsys.readouterr().out


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = star3()
    bad["surprise"] = 1
    path = write(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 2


@pytest.mark.parametrize("command", [["validate"], ["spectrum", "--min", "0", "--max", "5"],
                                     ["discrete"], ["criteria"]])
def test_malformed_coupling_exit_code(tmp_path, capsys, command):
    bad = star3()
    bad["coupling"] = {"type": "custom",
                       "vertices": {"center": {"basis": [[1.0], [1.0, 0.0]], "matrix": [[0.0]]}}}
    path = write(tmp_path, "bad.json", bad)
    assert main(command[:1] + [path] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "basis rows must have equal lengths" in captured.err


def test_non_finite_number_exit_code(tmp_path, capsys):
    path = write(tmp_path, "nan.json", star3(alpha=(math.nan, 0.0, 0.0, 0.0)))
    assert main(["criteria", path]) == 2
    assert capsys.readouterr().out == ""


def test_unknown_flag_exits_64(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3())
    assert main(["spectrum", path, "--min", "0", "--max", "1", "--frobnicate"]) == 64


def test_missing_subcommand_args_exit_64(tmp_path):
    assert main(["spectrum"]) == 64


def test_repeated_calls_in_one_process_match_lone_runs(tmp_path, capsys):
    # The parser is built once per process; each call must still print and
    # exit as it does in a process of its own.
    path = write(tmp_path, "star.json", star3())
    commands = {
        "usage": ["spectrum", path, "--min", "0", "--max", "1", "--frobnicate"],
        "validate": ["validate", path],
        "spectrum": ["spectrum", path, "--min", "0", "--max", "10"],
        "discrete": ["discrete", path],
    }
    alone = {}
    for name, argv in commands.items():
        proc = subprocess.run([sys.executable, "-m", "graphspectra.cli", *argv],
                              capture_output=True, text=True, env=package_env())
        alone[name] = (proc.returncode, proc.stdout, proc.stderr)
    assert alone["usage"][0] == 64 and "unrecognized arguments" in alone["usage"][2]
    for name in ["usage", "validate", "spectrum", "usage", "discrete", "validate",
                 "spectrum", "discrete", "usage"]:
        code = main(commands[name])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == alone[name], name


def test_a_short_edge_runs_every_command_without_a_warning(tmp_path):
    # (pi / 1e-160)^2 lies past the float range: no command may stop with an
    # OverflowError or print a numpy overflow warning, here raised as errors.
    data = {"model": {"type": "laplacian"},
            "vertices": [{"id": v, "alpha": 0.3} for v in ("v00", "v01", "v02")],
            "edges": [{"id": "e00", "from": "v00", "to": "v01", "length": 1.0},
                      {"id": "e01", "from": "v01", "to": "v02", "length": 1e-160}]}
    path = write(tmp_path, "chain.json", data)
    outputs = {}
    for argv in (["validate", path], ["discrete", path], ["criteria", path],
                 ["spectrum", path, "--min", "-5", "--max", "30", "--oracle"],
                 ["weyl", path, "--edge", "e01", "--lambda", "-1"]):
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "graphspectra.cli", *argv],
                              capture_output=True, text=True, env=package_env())
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        outputs[argv[0]] = proc.stdout
    krein = [line for line in outputs["spectrum"].splitlines() if line.startswith("krein,")
             and not line.endswith("undetermined-by-matching")]
    assert len(krein) == 2 and all(line.endswith(",agrees-oracle") for line in krein)


def dirac_interval(c):
    return {"model": {"type": "dirac", "c": c},
            "vertices": [{"id": "a", "alpha": 0.5}, {"id": "b", "alpha": 0.5}],
            "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}]}


def dirac_triangle(c):
    return {"model": {"type": "dirac", "c": c},
            "vertices": [{"id": v, "alpha": 0.5} for v in ("a", "b", "c")],
            "edges": [{"id": "ab", "from": "a", "to": "b", "length": 1.0},
                      {"id": "bc", "from": "b", "to": "c", "length": 1.0},
                      {"id": "ca", "from": "c", "to": "a", "length": 1.0}]}


def half_lines():
    # A unit edge with a half-line at each end.
    return {"model": {"type": "laplacian"},
            "vertices": [{"id": "a", "alpha": -1}, {"id": "b", "alpha": 0.5}],
            "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0},
                      {"id": "ha", "from": "a", "to": None, "length": "inf"},
                      {"id": "hb", "from": "b", "to": None, "length": "inf"}],
            "lambda0": -4}


def long_star():
    data = star3(alpha=(-8.0,) * 4)
    for edge, length in zip(data["edges"], (100.0, 70.0, 130.0)):
        edge["length"] = length
    return data


@pytest.mark.parametrize("data, argv, code, err", [
    # c^4 overflows: refused as input, not by an OverflowError later.
    (dirac_interval(1e78), ["validate"], 2,
     "invalid input: model.c: Dirac speed of light must be positive with a finite c^4, "
     "got 1e+78\n"),
    # kappa length passes 709 (kappa = sqrt(c^4/4 - lambda^2)/c, sqrt(-lambda)):
    # the oracle's transfer matrices overflow; it once listed 599 nan roots on
    # the first and stopped in its SVD on the second.
    (dirac_interval(1500.0), ["spectrum", "--min", "-1", "--max", "1", "--oracle"], 3,
     "numeric failure: the transfer matrix of edge 0 (length 1.0) overflows at "
     "lambda=-1.0\n"),
    (long_star(), ["spectrum", "--min", "-100", "--max", "-60", "--oracle"], 3,
     "numeric failure: the transfer matrix of edge 0 (length 100.0) overflows at "
     "lambda=-100.0\n"),
    # The transfers are finite, det A is not: on the interval in the tree
    # pass, on the triangle (a cycle) in LAPACK's det.
    (dirac_interval(1400.0), ["spectrum", "--min", "-1", "--max", "1", "--oracle"], 3,
     "numeric failure: det A overflows at lambda=-1.0\n"),
    (dirac_triangle(1100.0), ["spectrum", "--min", "-1", "--max", "1", "--oracle"], 3,
     "numeric failure: det A overflows at lambda=-1.0\n"),
    (half_lines(), ["spectrum", "--min", "-5", "--max", "-0.1", "--oracle"], 3,
     "numeric failure: oracle handles finite lengths only\n"),
], ids=["dirac-c-1e78", "dirac-c-1500", "long-star", "dirac-c-1400", "dirac-triangle-c-1100",
        "half-lines"])
def test_unrepresentable_problems_keep_the_exit_code_contract(tmp_path, data, argv, code, err):
    path = write(tmp_path, "problem.json", data)
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "graphspectra.cli",
                           argv[0], path, *argv[1:]],
                          capture_output=True, text=True, env=package_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)


def star_of_three(model=None):
    # Lengths 1, 0.7 and 1.3, alpha 0.5 at every vertex.
    data = star3((0.5,) * 4, model)
    for edge, length in zip(data["edges"], (1.0, 0.7, 1.3)):
        edge["length"] = length
    return data


def custom_triangle():
    # The counts take the dense eigensolve, and the oracle's matrix is complex.
    return {"model": {"type": "laplacian"},
            "vertices": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
            "edges": [{"id": "ab", "from": "a", "to": "b", "length": 1.0},
                      {"id": "bc", "from": "b", "to": "c", "length": 0.7},
                      {"id": "ca", "from": "c", "to": "a", "length": 1.3}],
            "coupling": {"type": "custom",
                         "vertices": {"a": {"basis": [[1, [0.6, 0.8]]], "matrix": [[0.4]]}}}}


_DIRAC = {"type": "dirac", "c": 1.0}


@pytest.mark.parametrize("data, argv", [
    pytest.param(star_of_three(), ["validate"], id="star-validate"),
    pytest.param(star_of_three(), ["criteria"], id="star-criteria"),
    pytest.param(star_of_three(), ["spectrum", "--min", "-5", "--max", "30", "--oracle"],
                 id="star-spectrum"),
    # The Dirac runs reach the Dirac block of both edge kernels, at real and
    # complex lambda.
    pytest.param(star_of_three(_DIRAC), ["validate"], id="dirac-star-validate"),
    pytest.param(star_of_three(_DIRAC), ["criteria"], id="dirac-star-criteria"),
    pytest.param(star_of_three(_DIRAC), ["spectrum", "--min", "-15", "--max", "15", "--oracle"],
                 id="dirac-star-spectrum"),
    pytest.param(star_of_three(_DIRAC), ["weyl", "--edge", "e00", "--lambda", "0.3,1.0"],
                 id="dirac-star-weyl-e00"),
    pytest.param(star_of_three(_DIRAC), ["weyl", "--edge", "e01", "--lambda", "2.5"],
                 id="dirac-star-weyl-e01"),
    pytest.param(custom_triangle(), ["validate"], id="triangle-validate"),
    pytest.param(custom_triangle(), ["criteria"], id="triangle-criteria"),
    pytest.param(custom_triangle(), ["discrete"], id="triangle-discrete"),
    pytest.param(custom_triangle(), ["spectrum", "--min", "-5", "--max", "30", "--oracle"],
                 id="triangle-spectrum"),
    pytest.param(half_lines(), ["validate"], id="half-lines-validate"),
    pytest.param(half_lines(), ["criteria"], id="half-lines-criteria"),
    pytest.param(half_lines(), ["discrete"], id="half-lines-discrete"),
    pytest.param(half_lines(), ["spectrum", "--min", "-5", "--max", "-0.1"],
                 id="half-lines-spectrum"),
])
def test_every_command_runs_without_a_warning(tmp_path, capsys, data, argv):
    # Every warning is an error here, not only those the test settings raise.
    path = write(tmp_path, "problem.json", data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv[:1] + [path] + argv[1:])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out


@pytest.mark.parametrize("data", [dirac_interval(1400.0), dirac_triangle(1100.0)],
                         ids=["tree-pass", "lapack"])
def test_an_overflowing_determinant_is_a_numeric_failure(tmp_path, capsys, data):
    # In-process, with RuntimeWarnings raised as errors: both det paths once
    # warned of the overflow, and the triangle then blamed mesh doubling.
    path = write(tmp_path, "problem.json", data)
    assert main(["spectrum", path, "--min", "-1", "--max", "1", "--oracle"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "numeric failure: det A overflows at lambda=-1.0\n")


def test_spectrum_csv_output(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3())
    assert main(["spectrum", path, "--min", "-1", "--max", "25", "--oracle"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "method,lambda,residual,multiplicity,flag"
    assert any(line.startswith("krein,") and "agrees-oracle" in line for line in lines)
    assert any(line.startswith("oracle,") for line in lines)
    assert any("undetermined-by-matching" in line for line in lines)


def test_spectrum_tags_both_roots_of_a_close_pair_as_agreeing(tmp_path, capsys):
    # The Dirac star's grid cell next to -10.56 holds two simple roots; the
    # oracle resamples the |det| dip there and finds the lower one too.
    data = star3((0.5,) * 4, {"type": "dirac", "c": 1.0})
    for edge, length in zip(data["edges"], (1.0, 0.7, 1.3)):
        edge["length"] = length
    path = write(tmp_path, "star.json", data)
    assert main(["spectrum", path, "--min", "-15", "--max", "15", "--oracle"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    (row,) = [r for r in rows if r[0] == "krein" and abs(float(r[1]) + 10.578810968922271) < 1e-9]
    assert row[-1] == "agrees-oracle"


def test_spectrum_tags_a_root_on_a_rounding_tie_as_agreeing(tmp_path, capsys, monkeypatch):
    # 5.4914233729525 lies on a tie in its 13th decimal: numpy's round of the
    # matched value gives 5.491423372952, Python's round of the root's
    # 5.491423372953.  The tag must not depend on either.
    from graphspectra import spectra as sp

    def result(method, lam):
        return sp.SpectrumResult((sp.Root(lam, 1e-15, 1, method),), (), method, (0.0, 10.0))

    monkeypatch.setattr(sp, "scan_spectrum", lambda *args, **kw: result("krein", 5.4914233729525))
    monkeypatch.setattr(sp, "oracle_eigenvalues",
                        lambda *args, **kw: result("oracle", 5.491423372952564))
    path = write(tmp_path, "star.json", star3())
    assert main(["spectrum", path, "--min", "0", "--max", "10", "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "krein,5.4914233729525,1e-15,1,agrees-oracle",
        "oracle,5.491423372952564,1e-15,1,ok"]


def test_oracle_spectrum_does_not_import_scipy_optimize(tmp_path):
    # scipy.optimize alone adds about 25 MB to the resident set of a CLI run,
    # scipy.sparse is most of the package's import time, and numpy.ma (which
    # np.unique and np.union1d import) adds about 1 MB.  None of the
    # spectrum, discrete and criteria commands needs any of scipy on a
    # small graph.
    path = write(tmp_path, "star.json", star3())
    script = ("import sys\n"
              "from graphspectra.cli import main\n"
              f"for args in (['spectrum', {path!r}, '--min', '-1', '--max', '25', '--oracle'],\n"
              f"             ['discrete', {path!r}], ['criteria', {path!r}]):\n"
              "    code = main(args)\n"
              "    assert code == 0, (args, code)\n"
              "    assert 'scipy' not in sys.modules, args\n"
              "    assert 'numpy.ma' not in sys.modules, args\n")
    result = subprocess.run([sys.executable, "-c", script], env=package_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_importing_the_package_loads_no_numpy_polynomial():
    # The quadrature rule is built on first use; numpy 1.25 imports
    # numpy.polynomial itself, so the test counts only what the package adds.
    script = ("import sys\n"
              "import numpy\n"
              "def loaded():\n"
              "    return {m for m in sys.modules if m.startswith('numpy.polynomial')}\n"
              "before = loaded()\n"
              "import graphspectra, graphspectra.cli\n"
              "assert loaded() == before, sorted(loaded() - before)\n")
    result = subprocess.run([sys.executable, "-c", script], env=package_env(),
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_spectrum_rejects_infinite_window(tmp_path):
    # In a subprocess with a timeout: an unchecked infinite window hangs in
    # the pole search with a growing pole list.
    path = write(tmp_path, "star.json", star3())
    result = subprocess.run(
        [sys.executable, "-m", "graphspectra.cli", "spectrum", path,
         "--min", "0", "--max", "inf", "--oracle"],
        env=package_env(), capture_output=True, text=True, timeout=30)
    assert result.returncode == 3
    assert result.stderr.startswith("numeric failure: window bounds must be finite")
    assert result.stdout == ""


def test_spectrum_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3((1.0, 0.0, -0.5, 0.0)))
    assert main(["spectrum", path, "--min", "-3", "--max", "12"]) == 0
    first = capsys.readouterr().out
    assert main(["spectrum", path, "--min", "-3", "--max", "12"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_spectrum_numeric_failure_exit(tmp_path, capsys):
    data = {
        "model": {"type": "laplacian"},
        "vertices": [{"id": "a"}],
        "edges": [{"id": "h", "from": "a", "to": None, "length": "inf"}],
    }
    path = write(tmp_path, "half.json", data)
    assert main(["spectrum", path, "--min", "-1", "--max", "1"]) == 3


def test_discrete_output(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3((6.0, 0.0, 0.0, 0.0)))
    out_file = tmp_path / "out.json"
    assert main(["discrete", path, "--lambda0", "0.0", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert payload["lambda0"] == 0.0
    assert payload["indices"] == ["center", "leaf00", "leaf01", "leaf02"]
    assert payload["c"]["center"] == pytest.approx(6.0)
    assert all(t[2] == pytest.approx(1.0) for t in payload["b"])


def test_criteria_report(tmp_path, capsys):
    dirac = star3((0.5, 0.0, 0.0, 0.0), model={"type": "dirac", "c": 1.0})
    path = write(tmp_path, "dirac_star.json", dirac)
    assert main(["criteria", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["criterion"]: entry for entry in payload}
    sa = by_name["self-adjointness"]
    assert sa["verdict"] == "HOLDS"
    assert sa["criterion_ref"] == "sa.path-divergence"
    assert sa["witness"]["bounded_degree"]["verdict"] == "HOLDS"
    assert by_name["discreteness"]["verdict"] == "FAILS"
    assert all("criterion_ref" in entry for entry in payload)


def test_criteria_depth_flag_declares_family(tmp_path, capsys):
    lengths = [0.5 * 0.5 ** n for n in range(8)]
    data = {
        "model": {"type": "laplacian"},
        "vertices": [{"id": f"v{i:02d}"} for i in range(9)],
        "edges": [
            {"id": f"e{i:02d}", "from": f"v{i:02d}", "to": f"v{i+1:02d}",
             "length": lengths[i]}
            for i in range(8)
        ],
    }
    path = write(tmp_path, "chain.json", data)
    assert main(["criteria", path, "--depth", "8"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["criterion"]: entry for entry in payload}
    assert by_name["self-adjointness"]["verdict"] == "INCONCLUSIVE"
    assert by_name["self-adjointness"]["truncation_depth"] == 8
    assert by_name["uniform-edge-lengths"]["verdict"] == "FAILS"
    assert by_name["discreteness"]["verdict"] == "HOLDS"


def test_criteria_explicit_dirac_gap_center(tmp_path, capsys):
    lengths = [0.5 * 0.5 ** n for n in range(6)]
    data = {
        "model": {"type": "dirac", "c": 1.1},
        "vertices": [{"id": f"v{i:02d}", "alpha": 0.3} for i in range(7)],
        "edges": [
            {"id": f"e{i:02d}", "from": f"v{i:02d}", "to": f"v{i+1:02d}",
             "length": lengths[i]}
            for i in range(6)
        ],
        "lambda0": 0.605,
    }
    path = write(tmp_path, "dirac_chain.json", data)
    assert main(["criteria", path, "--depth", "6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {entry["criterion"]: entry for entry in payload}
    assert by_name["self-adjointness"]["verdict"] == "HOLDS"
    assert by_name["self-adjointness"]["criterion_ref"] == "sa.bounded-degree"


def test_weyl_command(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3())
    assert main(["weyl", path, "--edge", "e00", "--lambda", "-1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["edge"] == "e00"
    kappa = 1.0
    expected = -kappa / math.tanh(kappa)
    assert payload["matrix"][0][0][0] == pytest.approx(expected)
    assert main(["weyl", path, "--edge", "e00", "--lambda", "zzz"]) == 64
    assert main(["weyl", path, "--edge", "e00", "--lambda", "1,2,3"]) == 64
    assert "bad --lambda value '1,2,3'" in capsys.readouterr().err


def test_missing_file_exit(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("ends,lengths", [
    ([("a", "b"), ("b", "c"), ("c", "a")], [1.0, 0.5, 0.25]),  # 3-cycle
    ([("a", "b"), ("c", "d")], [1.0, 0.5]),                    # two disjoint edges
])
def test_criteria_depth_non_chain_is_unknown_family(tmp_path, capsys, ends, lengths):
    vertices = sorted({v for pair in ends for v in pair})
    data = {
        "model": {"type": "laplacian"},
        "vertices": [{"id": v} for v in vertices],
        "edges": [{"id": f"e{i}", "from": s, "to": t, "length": length}
                  for i, ((s, t), length) in enumerate(zip(ends, lengths))],
    }
    path = write(tmp_path, "not_chain.json", data)
    assert main(["criteria", path, "--depth", str(len(ends))]) == 0
    out = capsys.readouterr().out
    by_name = {entry["criterion"]: entry for entry in json.loads(out)}
    assert by_name["self-adjointness"]["criterion_ref"] == "sa.unknown-family"
    assert '_closed_form"' not in out  # no chain-tail witness key anywhere


def chain_json(lengths, model=None, alpha=0.0):
    return {
        "model": model or {"type": "laplacian"},
        "vertices": [{"id": f"v{i:02d}", "alpha": alpha} for i in range(len(lengths) + 1)],
        "edges": [{"id": f"e{i:02d}", "from": f"v{i:02d}", "to": f"v{i+1:02d}",
                   "length": ell} for i, ell in enumerate(lengths)],
    }


def test_criteria_prints_booleans(tmp_path, capsys):
    path = write(tmp_path, "chain.json", chain_json([0.5 * 0.5 ** n for n in range(40)],
                                                    alpha=0.3))
    assert main(["criteria", path]) == 0
    out = capsys.readouterr().out
    # Every edge's witness decreases, the shortest ones' included, whose
    # noise (M(lambda) - M(lambda0) as a difference of two O(1/l) matrices)
    # made the evidence read false before.
    assert '"evidence_supports": true' in out
    assert '"strictly_decreasing": true' in out
    payload = json.loads(out)
    scan = next(p for p in payload if p["criterion"] == "renormalized-divergence")
    assert all(type(entry["strictly_decreasing"]) is bool
               for entry in scan["witness"]["per_edge"].values())


def test_criteria_survives_samples_on_dirac_poles(tmp_path, capsys):
    # lambda = -1e5 and -1e6 both lie within the pole guard of this edge.
    path = write(tmp_path, "edge.json", chain_json([1.000000357564292],
                                                   model={"type": "dirac", "c": 1.0}))
    assert main(["criteria", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    scan = next(p for p in payload if p["criterion"] == "renormalized-divergence")
    entry = scan["witness"]["per_edge"]["e00"]
    assert entry["samples_on_poles"] == [-1e5, -1e6]
    assert len(entry["max_eigenvalues"]) == 4
    assert entry["strictly_decreasing"] is False
    assert scan["witness"]["evidence_supports"] is False


@pytest.mark.parametrize("argv,model", [
    (["weyl", "--edge", "e00", "--lambda", "inf"], None),
    (["weyl", "--edge", "e00", "--lambda", "1,inf"], None),
    (["weyl", "--edge", "e00", "--lambda", "1,nan"], None),
    (["weyl", "--edge", "e00", "--lambda", "nan"], None),
    (["discrete", "--lambda0", "inf"], None),
    (["discrete", "--lambda0", "1e300"], {"type": "dirac", "c": 1.0}),
    (["spectrum", "--min", "0", "--max", "1e300"], {"type": "dirac", "c": 1.0}),
    # Laplacian windows over the pole index cap: refused before any evaluation.
    (["spectrum", "--min", "0", "--max", "1e300"], None),
    (["spectrum", "--min", "0", "--max", "1e20"], None),
    (["spectrum", "--min", "0", "--max", "1e20", "--oracle"], None),
])
def test_non_finite_or_overflowing_lambda_is_a_numeric_failure(tmp_path, capsys, argv, model):
    path = write(tmp_path, "star.json", star3(model=model))
    assert main(argv[:1] + [path] + argv[1:]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: ")
    assert "not finite or overflows" in captured.err


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_criteria_depth_below_one_is_a_usage_error(tmp_path, capsys, depth):
    path = write(tmp_path, "chain.json", chain_json([0.5 * 0.5 ** n for n in range(4)]))
    assert main(["criteria", path, "--depth", depth]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth must be at least 1" in captured.err


def one_edge_custom(basis):
    return {"model": {"type": "laplacian"},
            "vertices": [{"id": "a", "alpha": 0.0}, {"id": "b", "alpha": 0.0}],
            "edges": [{"id": "e", "from": "a", "to": "b", "length": 1.0}],
            "coupling": {"type": "custom",
                         "vertices": {"a": {"basis": basis, "matrix": [[0.0]]}}}}


@pytest.mark.parametrize("basis,message", [
    ([[1.0], [1.0]], "vertex a: basis vectors are linearly dependent"),
    ([[]], "vertex a: coupling subspace must have dim >= 1"),
], ids=["dependent", "dimension-0"])
def test_validate_builds_the_coupling(tmp_path, capsys, basis, message):
    # Coupling data that the other commands refuse is not valid either.
    path = write(tmp_path, "custom.json", one_edge_custom(basis))
    assert main(["validate", path]) == 2
    assert capsys.readouterr().out == f"violation: coupling: {message}\n"
    assert main(["spectrum", path, "--min", "0", "--max", "5"]) == 3
    assert message in capsys.readouterr().err


def test_window_over_the_graph_wide_pole_budget_exits_3(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3())
    assert main(["spectrum", path, "--min", "0", "--max", "3.6e12"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "graph-wide pole index cap" in captured.err


@pytest.mark.parametrize("argv, code", [
    (["spectrum", "--min", "-1e1", "--max", "1"], 0),
    (["spectrum", "--min", "-15.0", "--max", "1"], 0),
    (["spectrum", "--min", "-inf", "--max", "1"], 3),
    (["discrete", "--lambda0", "-1e-1"], 0),
    (["weyl", "--edge", "e00", "--lambda", "-2e1"], 0),
    (["weyl", "--edge", "e00", "--lambda", "-2,3"], 0),
    (["weyl", "--edge", "e00", "--lambda", "-2,3,4"], 64),
    (["criteria", "--depth", "-3"], 64),
])
def test_negative_values_read_as_their_equals_forms(tmp_path, capsys, argv, code):
    # argparse takes -1 and -1.5 for values but -1e1 or -2,3 for options.
    path = write(tmp_path, "star.json", star3())
    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    results = []
    for form in (argv, joined):
        results.append((main(form[:1] + [path] + form[1:]), capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == code


@pytest.mark.parametrize("argv", [["discrete"], ["criteria"],
                                  ["spectrum", "--min", "0", "--max", "5"],
                                  ["weyl", "--edge", "e00", "--lambda", "1"]])
def test_invalid_graph_exits_2_on_every_command(tmp_path, capsys, argv):
    bad = star3()
    bad["edges"][1]["length"] = 0.0
    path = write(tmp_path, "bad.json", bad)
    assert main(argv[:1] + [path] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "violation: nonpositive length: edge e01 has length 0.0\n"


def test_weyl_unknown_edge_exits_2(tmp_path, capsys):
    path = write(tmp_path, "star.json", star3())
    assert main(["weyl", path, "--edge", "nosuch", "--lambda", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "no edge 'nosuch'" in captured.err


def test_edge_id_and_source_must_be_strings_in_files(tmp_path, capsys):
    bad = star3()
    bad["edges"][0]["from"] = None
    path = write(tmp_path, "bad.json", bad)
    assert main(["validate", path]) == 2
    assert capsys.readouterr().err == "invalid input: edges[0].from must be a string\n"


@pytest.mark.parametrize("ends", [
    [("a", "b"), ("c", "d"), ("b", "c")],  # the path a-b-c-d, out of order
    [("a", "b"), ("b", "c"), ("a", "d")],  # the path d-a-b-c, out of order
])
def test_criteria_depth_path_out_of_order_is_unknown_family(tmp_path, capsys, ends):
    data = {
        "model": {"type": "laplacian"},
        "vertices": [{"id": v} for v in "abcd"],
        "edges": [{"id": f"e{i}", "from": s, "to": t, "length": 0.5 ** i}
                  for i, (s, t) in enumerate(ends)],
    }
    path = write(tmp_path, "path.json", data)
    assert main(["criteria", path, "--depth", "3"]) == 0
    by_name = {entry["criterion"]: entry for entry in json.loads(capsys.readouterr().out)}
    assert by_name["self-adjointness"]["criterion_ref"] == "sa.unknown-family"
