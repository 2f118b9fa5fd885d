"""Every public name the package declares must exist."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

import pytest

import casimirlab
from casimirlab import cli
from casimirlab.force_model import Geometry
from casimirlab.vexp import CampaignSpec

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


def test_no_line_is_longer_than_100_characters():
    long = [f"{path.name}:{n} ({len(line)})"
            for path in sorted(Path(casimirlab.__file__).parent.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), start=1) if len(line) > 100]
    assert not long, f"lines over 100 characters: {long}"


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


# Optional parameters that no package call sets, each with the reason it stays.
SET_OUTSIDE_THE_PACKAGE = {
    ("lifshitz", "casimir_pressure", "with_breakdown"): "per-term sums of criterion 02",
    ("force_model", "pressure_to_gradient_sweep", "tol"): "the acceptance and bench oracle",
    ("electrostatics", "gamma_coefficient", "tol"): "series tolerance of criterion 04",
    ("cli", "main", "argv"): "entry point; None reads sys.argv",
    ("errors", "CasimirLabError", "field"): "set through its subclasses",
}
# Optional parameters that every package call sets, each with the caller
# that leaves the default in place.
LEFT_OUTSIDE_THE_PACKAGE = {
    ("lifshitz", "casimir_pressure", "cache"): "criterion 09 computes each pressure alone",
    ("force_model", "force_gradient", "cache"): "criterion 09 computes each gradient alone",
    ("lifshitz", "MatsubaraCache", "separations"): "criterion 09 lists no separations",
    ("electrostatics", "gamma_coefficient", "tol"): "criterion 04 at the series' own tolerance",
    ("force_model", "pressure_to_gradient_sweep", "tol"):
        "the acceptance fixtures and the benchmark's set-up",
    ("errors", "CasimirLabError", "field"): "raised through its subclasses",
}
# An instance's __call__ has no name the scan can resolve: the names the
# package calls each one by.
CALLED_AS = {"table": ("electrostatics", "GammaTable.__call__"),
             "_curve": ("chebyshev", "Interpolant.__call__")}


def _parameters(func, method):
    """[(name, optional, keyword only)] of a def, positional ones first, without self."""
    args = func.args
    positional = args.posonlyargs + args.args
    first_optional = len(positional) - len(args.defaults)
    params = [(a.arg, i >= first_optional, False) for i, a in enumerate(positional)]
    params += [(a.arg, d is not None, True) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return params[1:] if method else params


def _record_fields(record):
    """[(field, optional, keyword only)] of a dataclass or NamedTuple, in its
    constructor's order: a dataclass's bases' fields first, as dataclasses
    orders them."""
    if dataclasses.is_dataclass(record):
        return [(f.name, f.default is not dataclasses.MISSING
                 or f.default_factory is not dataclasses.MISSING, f.kw_only)
                for f in dataclasses.fields(record)]
    return [(name, name in record._field_defaults, False) for name in record._fields]


def _definitions(trees):
    """(module, name) -> [(parameter, optional, keyword only)] of every
    module-level function, method ('Class.method') and constructor ('Class':
    its __init__, or the fields of a dataclass or NamedTuple, inherited ones
    included)."""
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[module, node.name] = _parameters(node, False)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = node.name if item.name == "__init__" else f"{node.name}.{item.name}"
                    defs[module, name] = _parameters(item, True)
            marks = {ast.unparse(d).split("(")[0] for d in node.decorator_list + node.bases}
            if marks & {"dataclass", "NamedTuple"}:
                record = getattr(importlib.import_module(f"casimirlab.{module}"), node.name)
                defs[module, node.name] = _record_fields(record)
    return defs


def _callees(module, tree, defs):
    """(call, [(module, name)] it may reach) for every call in a module: a name
    of the module or imported from a package module, a package module's
    attribute, a method of self's class, or any package method of that name."""
    names = {name: (module, name) for m, name in defs if m == module and "." not in name}
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)
        if not isinstance(node, ast.Call):
            return
        func, targets = node.func, []
        if isinstance(func, ast.Name):
            targets = [names.get(func.id, CALLED_AS.get(func.id))]
        elif isinstance(func, ast.Attribute):
            base = getattr(func.value, "id", None)
            if base in modules:
                targets = [(modules[base], func.attr)]
            elif base in names:
                targets = [(names[base][0], f"{names[base][1]}.{func.attr}")]
            elif base == "self" and (module, f"{cls}.{func.attr}") in defs:
                targets = [(module, f"{cls}.{func.attr}")]
            else:
                targets = [CALLED_AS.get(func.attr)] + [key for key in defs
                                                        if key[1].endswith(f".{func.attr}")]
        found.append((node, [t for t in targets if t in defs]))

    visit(tree, None)
    return found


def _option_use():
    """The optional parameters of every package def, the ones some package call
    sets, and the ones whose default some package call leaves in place.  A call
    that unpacks * or ** both sets and leaves each of them."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(casimirlab.__file__).parent.glob("*.py"))}
    defs = _definitions(trees)
    optional = {(m, name, p) for (m, name), params in defs.items() for p, opt, _ in params if opt}
    set_, left = set(), set()
    for module, tree in trees.items():
        for call, targets in _callees(module, tree, defs):
            opaque = any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg is None for k in call.keywords)
            passed = {k.arg for k in call.keywords}
            for m, name in targets:
                for i, (p, opt, keyword_only) in enumerate(defs[m, name]):
                    given = (not keyword_only and i < len(call.args)) or p in passed
                    if opt and (opaque or given):
                        set_.add((m, name, p))
                    if opt and (opaque or not given):
                        left.add((m, name, p))
    return optional, set_, left


def _private(name):
    return any(part.startswith("_") and not part.startswith("__") for part in name.split("."))


def test_every_option_has_a_package_caller():
    """Each optional parameter of a public function is set by some package call,
    and each default of a private helper is left in place by one: a value only
    tests set, or one every caller restates, is a constant or a required
    argument."""
    optional, set_, left = _option_use()
    unset = sorted(f"{m}.{name}({p})" for m, name, p in optional - set_
                   if not _private(name) and (m, name, p) not in SET_OUTSIDE_THE_PACKAGE)
    unused = sorted(f"{m}.{name}({p})" for m, name, p in optional - left if _private(name))
    assert not unset and not unused, (f"options no package call sets: {unset}; "
                                      f"private defaults no package call uses: {unused}")
    assert set(SET_OUTSIDE_THE_PACKAGE) <= optional - set_


def test_every_option_is_left_in_place_by_some_caller():
    """Each optional parameter of a public function keeps its default in some
    package call, or in a caller LEFT_OUTSIDE_THE_PACKAGE names: a default
    every caller overrides is a required argument."""
    optional, _, left = _option_use()
    always_set = sorted(f"{m}.{name}({p})" for m, name, p in optional - left
                        if not _private(name) and (m, name, p) not in LEFT_OUTSIDE_THE_PACKAGE)
    assert not always_set, f"defaults no caller leaves in place: {always_set}"
    assert set(LEFT_OUTSIDE_THE_PACKAGE) <= optional - left


def test_every_defaulted_record_field_is_fed_by_a_config_key():
    """Each field of Geometry and CampaignSpec that has a default is fed by a
    cli._SCHEMA key of the record's section: a default no config can change
    is a module constant, not a field.  _option_use cannot tell, as every
    constructor call of the two records unpacks **."""
    unfed = []
    for record, section in ((Geometry, "geometry"), (CampaignSpec, "campaign")):
        fed = {field for *_, field in cli._SCHEMA[section].values()}
        unfed += [f"{record.__name__}.{f.name}" for f in dataclasses.fields(record)
                  if f.default is not dataclasses.MISSING and f.name not in fed]
    assert not unfed, f"defaulted fields no config key feeds: {unfed}"


def test_only_force_model_reads_the_separation_domain():
    """Geometry decides which separations it admits (contains, check_separation,
    span): no other module reads the bounds that decision is made of."""
    reads = []
    for path in sorted(Path(casimirlab.__file__).parent.glob("*.py")):
        if path.stem == "force_model":
            continue
        reads += [f"{path.name}:{node.lineno} .{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in ("a_min", "max_aspect")]
    assert not reads, f"the separation domain read outside force_model: {reads}"
