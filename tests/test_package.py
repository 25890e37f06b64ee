"""The package namespace re-exports every public name of its submodules."""

import importlib
import pkgutil

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
