"""The package exports only names that its own code, the demos or the acceptance suite use,
and serves each from the module that defines it."""

import ast
import typing
from pathlib import Path

import sqzmet
import sqzmet.gaussian

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path) -> set[str]:
    """Identifiers a file reads, imports or accesses as attributes; docstrings and definitions do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_exported_name_has_a_caller():
    package = ROOT / "src" / "sqzmet"
    callers = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    callers += sorted((ROOT / "demos").glob("*.py"))
    callers.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*(_used_names(path) for path in callers))
    assert sorted(set(sqzmet.__all__) - used) == []


def test_every_export_resolves_with_its_type_hints(monkeypatch):
    # every name resolves through the package's table, type hints included
    for name in sqzmet.__all__:
        obj = getattr(sqzmet, name)
        if callable(obj):
            typing.get_type_hints(obj)
    assert set(sqzmet.__all__) <= set(dir(sqzmet))
    namespace = {}
    exec("from sqzmet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(sqzmet.__all__)
    assert len(sqzmet.__all__) == 48
    assert sqzmet.gaussian.SqueezeParameter is sqzmet.SqueezeParameter
    # a name read once is not cached: a function replaced in its module shows
    replaced = object()
    monkeypatch.setattr(sqzmet.metrology, "run_protocol", replaced)
    assert sqzmet.run_protocol is replaced
