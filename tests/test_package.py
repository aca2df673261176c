"""Package-level checks: every name a module exports exists and is reached
by the library or the benchmark, every function the benchmark's metrics
name is one the tracer wraps, and every benchmark case at seed 0 passes the
benchmark's own output checks without running the 2-D product rule.

The benchmark tracer wraps the public functions of each module and skips
names it cannot find, so a stale ``__all__`` entry left by a deletion
would otherwise go unseen."""

import ast
import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import orliczhp
from orliczhp import measure

MODULES = sorted(m.name for m in pkgutil.iter_modules(orliczhp.__path__))


def test_modules_found():
    assert {"carleson", "spaces", "integrals", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"orliczhp.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"orliczhp.{name}.__all__ names missing attributes: {missing}"


ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    """A module of ``perfbench/``, loaded by path (that directory is no
    package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


SRC = ROOT / "src" / "orliczhp"

# exported names that only tests call, each with the reason it stays public
_TEST_ONLY = {
    "growth.conjugate": "acceptance criterion 9 checks it against closed forms",
    "multipliers.section6_annulus_bound": "acceptance criterion 6 bounds the section-6 "
                                          "box masses with it",
    "integrals.line_kernel_value": "acceptance criterion 1 is its beta-function oracle",
    "integrals.sinh_sinh": "the line-rule tests check it against closed forms",
}


def _identifiers(node):
    """Names, attributes and imported names used in ``node``; docstrings
    and comments do not count."""
    found = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _top_level_identifiers(path):
    """``(name, identifiers)`` per top-level statement of a module: the
    name of a top-level function or class definition, else ``None``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None,
             _identifiers(node)) for node in tree.body]


def test_every_exported_name_is_reached():
    """Each ``__all__`` name is used by the library outside its own
    definition or named by the benchmark (its tracer's metric keys
    included), or it is an exported test oracle listed in ``_TEST_ONLY``.
    Public API that nothing runs is deleted, or moved into the tests.

    Each module is parsed and walked once; a name's own module counts
    every top-level statement except that name's definition."""
    parts = {path.stem: _top_level_identifiers(path) for path in sorted(SRC.glob("*.py"))}
    benchmark = set(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py")))))
    unreached = []
    for name in MODULES:
        elsewhere = benchmark.union(*(ids for mod, stmts in parts.items() if mod != name
                                      for _, ids in stmts))
        for exported in getattr(importlib.import_module(f"orliczhp.{name}"), "__all__", ()):
            if exported in elsewhere:
                continue
            if not any(exported in ids for defined, ids in parts[name] if defined != exported):
                unreached.append(f"{name}.{exported}")
    assert sorted(unreached) == sorted(_TEST_ONLY), (
        f"unreached and not listed: {sorted(set(unreached) - set(_TEST_ONLY))}; "
        f"listed but reached or gone: {sorted(set(_TEST_ONLY) - set(unreached))}")


# metrics the tracer does not read off a module function: the class-level
# growth-function wrappers and the pseudo-names it sums or counts itself
_NOT_FUNCTIONS = {"growth.eval", "growth.inverse", "carleson.test_family", "trace"}


def test_traced_functions_are_public():
    """Every ``layer.fn`` the benchmark's metrics name is a function the
    tracer wraps, so a renamed or privatised tester cannot leave a metric
    reading zero."""
    tracing = _load_perfbench("tracing")
    missing = []
    for key in tracing.COUNT_METRICS + tracing.TIME_METRICS:
        layer_fn = key.rsplit(".", 1)[0]
        if layer_fn in _NOT_FUNCTIONS:
            continue
        layer, fn = layer_fn.split(".")
        module = importlib.import_module(f"orliczhp.{layer}")
        if fn not in {f.__name__ for f in tracing._public_functions(module)}:
            missing.append(key)
    assert not missing, f"metrics naming no traced function: {missing}"


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_cases_pass_their_checks(workload, tmp_path, monkeypatch):
    """Each case of the workload at seed 0 runs without raising, and its
    record passes ``oracles.CHECKS``, as in a benchmark pass.  No case runs
    the 2-D product rule: every kernel modular of a benchmark case, under
    any ``phi2``, is on the 1-D height path."""
    workloads, oracles = _load_perfbench("workloads"), _load_perfbench("oracles")
    calls = []
    real = measure.integrate_halfplane

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(measure, "integrate_halfplane", counting)
    fails = []
    for case in workloads.WORKLOADS[workload](0, tmp_path):
        fails += oracles.CHECKS[workload](case.record(case.run()))
    assert not fails
    assert not calls
