"""Every public name the package declares must exist."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import casimirlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(casimirlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"casimirlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"casimirlab.{name}.__all__ names undefined {missing}"


def test_package_reexports_exist():
    tree = ast.parse(Path(casimirlab.__file__).read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module_name, attr in reexports:
        module = importlib.import_module(f"casimirlab.{module_name}")
        assert attr in getattr(module, "__all__", ()), f"{attr} not in casimirlab.{module_name}.__all__"
        assert getattr(casimirlab, attr) is getattr(module, attr)
