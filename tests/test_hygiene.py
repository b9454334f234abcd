"""Source hygiene checks that need no linter."""

import argparse
import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import bellbound
from bellbound.cli import build_parser
from bellbound.quad import IntegrationSpec

SOURCES = sorted(Path(bellbound.__file__).parent.glob("*.py"))


def imported_names(tree):
    """Names bound at module level by import statements."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    name = "bellbound" if path.stem == "__init__" else f"bellbound.{path.stem}"
    module = importlib.import_module(name)
    exported = set(getattr(module, "__all__", ()))
    unused = imported_names(tree) - used_names(tree) - exported
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    # a star import and perfbench's tracer read every __all__ name with
    # getattr, so a stale entry breaks them while direct imports still work
    name = "bellbound" if path.stem == "__init__" else f"bellbound.{path.stem}"
    module = importlib.import_module(name)
    unbound = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not unbound, f"{path.name} exports unbound names: {unbound}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_long_double(path):
    # results must not depend on the platform's long double, which is plain
    # float64 on some platforms
    assert "longdouble" not in path.read_text(), f"{path.name} uses long double"


def random_uses(tree):
    """Places that import the random module or reach numpy.random."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "random" or a.name == "numpy.random"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module.split(".")[0] == "random" or module.startswith("numpy.random"):
                found.append(module)
            elif module == "numpy":
                found += [f"numpy.{a.name}" for a in node.names if a.name == "random"]
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"{node.value.id}.random")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_random_numbers(path):
    # every production result is deterministic; sampling lives in the test
    # oracles only
    uses = random_uses(ast.parse(path.read_text(), filename=str(path)))
    assert not uses, f"{path.name} uses random numbers: {uses}"


def imported_modules(tree):
    """Top-level package names of every import statement, at any depth."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_test_only_dependencies(path):
    # mpmath and scipy are test oracles' dependencies, and the oracles live in
    # tests/: the package must import without them
    uses = imported_modules(ast.parse(path.read_text(), filename=str(path)))
    found = sorted(uses & {"mpmath", "scipy", "tests", "oracles"})
    assert not found, f"{path.name} imports test-only modules: {found}"


LAYERS = ("specfun", "quad", "fock", "weyl", "hvbound", "phasespace")


def called_names(tree):
    """Names called in a module, directly or as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                found.add(func.id)
            elif isinstance(func, ast.Attribute):
                found.add(func.attr)
    return found


@pytest.mark.parametrize("layer", LAYERS)
def test_every_public_function_has_a_package_use(layer):
    # test-only oracles live in tests/: a public function of a layer is
    # either exported at the package root or called by another module
    module = importlib.import_module(f"bellbound.{layer}")
    public = {name for name, obj in vars(module).items()
              if not name.startswith("_") and inspect.isfunction(obj)
              and obj.__module__ == module.__name__}
    called = set().union(*(called_names(ast.parse(path.read_text()))
                           for path in SOURCES if path.stem != layer))
    idle = sorted(public - set(bellbound.__all__) - called)
    assert not idle, f"{layer} has public functions no other module uses: {idle}"


def test_pipeline_layers_are_exported_at_the_root():
    # every __all__ name of the pipeline layers is bound at the package root,
    # as the same object; the quad engine and the specfun functions are
    # imported from their modules
    missing = []
    for layer in ("fock", "weyl", "hvbound", "phasespace"):
        module = importlib.import_module(f"bellbound.{layer}")
        missing += [f"{layer}.{name}" for name in module.__all__
                    if getattr(bellbound, name, None) is not getattr(module, name)]
    assert not missing, f"not exported at the package root: {missing}"


def knob_literals(tree):
    """The knob= strings passed to QuadratureError, with their lines."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "QuadratureError"):
            for kw in node.keywords:
                if kw.arg == "knob":
                    assert isinstance(kw.value, ast.Constant), \
                        f"line {node.lineno}: knob must be a literal"
                    found.append((kw.value.value, node.lineno))
    return found


def test_every_knob_hint_names_a_flag():
    # cli.main turns a knob into "raise --<knob>": each must be a spec field
    # that the command line can set
    fields = {f.name for f in dataclasses.fields(IntegrationSpec)}
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    flags = {opt for sub in commands.values() for a in sub._actions
             for opt in a.option_strings}
    knobs = [(path.name, knob, line) for path in SOURCES
             for knob, line in knob_literals(ast.parse(path.read_text()))]
    assert knobs
    for name, knob, line in knobs:
        assert knob in fields, f"{name}:{line} knob {knob!r} is no spec field"
        flag = "--" + knob.replace("_", "-")
        assert flag in flags, f"{name}:{line} knob {knob!r} has no {flag}"


def spec_reads(tree):
    """Field names read off a spec, as spec.x or <obj>.spec.x; the
    IntegrationSpec class's own checks read self.x and do not count."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if ((isinstance(owner, ast.Name) and owner.id == "spec")
                    or (isinstance(owner, ast.Attribute) and owner.attr == "spec")):
                found.add(node.attr)
    return found


def test_every_spec_field_is_read():
    # a field no route reads is a knob that changes nothing; mc_samples and
    # seed feed only the Monte Carlo oracle in tests/
    fields = {f.name for f in dataclasses.fields(IntegrationSpec)} - {"mc_samples", "seed"}
    read = set().union(*(spec_reads(ast.parse(path.read_text())) for path in SOURCES))
    assert fields <= read, f"spec fields no module reads: {sorted(fields - read)}"


def test_every_spec_read_is_a_field():
    # a read of a field the spec no longer has fails only on the branch that
    # runs it, such as an error message no test reaches
    fields = {f.name for f in dataclasses.fields(IntegrationSpec)}
    for path in SOURCES:
        stale = spec_reads(ast.parse(path.read_text())) - fields
        assert not stale, f"{path.name} reads spec fields that do not exist: {sorted(stale)}"
