"""The README's examples run against the current API: its python blocks
execute, and its graph file passes every CLI subcommand that reads one."""

from __future__ import annotations

import contextlib
import io
import pathlib
import re

import pytest

from graphspectra.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_the_examples_this_file_runs():
    assert len(blocks("python")) == 2
    assert len(blocks("json")) == 1


def test_readme_python_blocks_run():
    # The second block continues the first (it uses its import).
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for index, code in enumerate(blocks("python")):
            exec(compile(code, f"README.md python block {index}", "exec"), namespace)


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["discrete"],
    ["criteria"],
    ["spectrum", "--min", "-3", "--max", "3", "--oracle"],
])
def test_readme_graph_file_runs_through_the_cli(tmp_path, capsys, argv):
    path = tmp_path / "graph.json"
    path.write_text(blocks("json")[0], encoding="utf-8")
    assert main(argv[:1] + [str(path)] + argv[1:]) == 0
    assert capsys.readouterr().err == ""
