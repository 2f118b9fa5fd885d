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


def test_only_textio_reads_writes_or_makes_directories():
    """Every file the package reads or writes goes through casimirlab.textio."""
    calls = []
    for path in sorted(Path(casimirlab.__file__).parent.glob("*.py")):
        if path.stem == "textio":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("read_text", "write_text", "open", "mkdir"):
                    calls.append(f"{path.name}:{node.lineno} {name}")
    assert not calls, f"file access outside textio: {calls}"


def test_no_module_imports_scipy():
    """The package needs only numpy at run time; scipy is a test dependency."""
    imports = []
    for path in sorted(Path(casimirlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {n}" for n in names
                        if n.split(".")[0] == "scipy"]
    assert not imports, f"scipy imported by the package: {imports}"


# Imported but unused: bench/tests/test_bench_tracing.py checks that the layer
# tracer rebinds these names in these modules, so they stay until the
# benchmark stops asking for them (ROADMAP item 7).
KEPT_FOR_BENCH = {("analysis", "gamma_over_c"), ("cli", "pressure_to_gradient_sweep"),
                  ("vexp", "pressure_to_gradient_sweep")}


def test_no_unused_module_imports():
    """Every module-level import is used in its module or named in its __all__.

    The package's own imports are its exports (test_package_reexports_exist).
    """
    unused = set()
    for path in sorted(Path(casimirlab.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = [(alias.asname or alias.name).split(".")[0]
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(importlib.import_module(f"casimirlab.{path.stem}"), "__all__", ()))
        unused |= {(path.stem, name) for name in bound if name not in used}
    assert unused == KEPT_FOR_BENCH


# The per-point oracle: pressure_to_gradient_sweep builds its sweep's
# MatsubaraCache and calls force_gradient at each point, which calls
# casimir_pressure.  The package computes its gradients from the batch's
# arrays (gradient_sweeps, gradient_curve), so these calls are the only ones.
ORACLE_CHAIN = {("pressure_to_gradient_sweep", "MatsubaraCache"),
                ("pressure_to_gradient_sweep", "force_gradient"),
                ("force_gradient", "casimir_pressure")}


def _calls(node, caller, names, found):
    """(caller, callee) of every call of one of names under node, the caller
    being the innermost function around the call."""
    for child in ast.iter_child_nodes(node):
        inner = caller
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = child.name
        elif isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.add((caller, name))
        _calls(child, inner, names, found)
    return found


def test_only_the_oracle_chain_calls_the_per_point_oracle():
    """No production path reaches the per-point functions: in the package they
    are called only along ORACLE_CHAIN."""
    names = {name for pair in ORACLE_CHAIN for name in pair}
    found = set()
    for path in sorted(Path(casimirlab.__file__).parent.glob("*.py")):
        _calls(ast.parse(path.read_text()), f"{path.stem} (module level)", names, found)
    assert found == ORACLE_CHAIN
