"""The package's public names against the committed list
``data/public_names.txt``, one name a line: the non-underscore attributes of
``graphspectra`` other than its submodules, as ``graphspectra.NAME``, and
each module's ``__all__``, as ``graphspectra.MODULE.NAME``.  Adding,
removing or renaming a public name is then a one-line diff of that file."""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import types

import graphspectra

NAMES = pathlib.Path(__file__).resolve().parent / "data" / "public_names.txt"


def public_names():
    names = {f"graphspectra.{name}" for name, value in vars(graphspectra).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    for info in pkgutil.iter_modules(graphspectra.__path__):
        module = importlib.import_module(f"graphspectra.{info.name}")
        assert len(set(module.__all__)) == len(module.__all__), info.name
        for name in module.__all__:
            assert hasattr(module, name), f"{info.name}.__all__ names a missing {name}"
            names.add(f"graphspectra.{info.name}.{name}")
    return names


def test_public_names_are_the_committed_list():
    committed = NAMES.read_text(encoding="utf-8").splitlines()
    assert committed == sorted(committed)
    names = public_names()
    assert (sorted(names - set(committed)), sorted(set(committed) - names)) == ([], [])
