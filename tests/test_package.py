"""The package namespace re-exports every public name of its submodules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import fracsys

SUBMODULES = [m.name for m in pkgutil.iter_modules(fracsys.__path__)]


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_public_names_are_exported(name):
    module = importlib.import_module(f"fracsys.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(fracsys, n)]
    assert not missing, f"fracsys.{name}.__all__ names not exported by fracsys: {missing}"
    for n in getattr(module, "__all__", []):
        assert getattr(fracsys, n) is getattr(module, n)


SOURCES = sorted(Path(fracsys.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_private_attribute_of_another_object(path):
    # a module reaches another object's internals only through public names;
    # self._x and dunder names are fine
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = [f"{path.name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
           if isinstance(node, ast.Attribute) and node.attr.startswith("_")
           and not (node.attr.startswith("__") and node.attr.endswith("__"))
           and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert not bad, bad
