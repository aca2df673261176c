"""Package-level checks: every name a module exports exists, and every
function the benchmark's metrics name is one the tracer wraps.

The benchmark tracer wraps the public functions of each module and skips
names it cannot find, so a stale ``__all__`` entry left by a deletion
would otherwise go unseen."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import orliczhp

MODULES = sorted(m.name for m in pkgutil.iter_modules(orliczhp.__path__))


def test_modules_found():
    assert {"carleson", "spaces", "integrals", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"orliczhp.{name}")
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"orliczhp.{name}.__all__ names missing attributes: {missing}"


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing
    spec.loader.exec_module(tracing)
    return tracing


# metrics the tracer does not read off a module function: the class-level
# growth-function wrappers and the pseudo-names it sums or counts itself
_NOT_FUNCTIONS = {"growth.eval", "growth.inverse", "carleson.test_family", "trace"}


def test_traced_functions_are_public():
    """Every ``layer.fn`` the benchmark's metrics name is a function the
    tracer wraps, so a renamed or privatised tester cannot leave a metric
    reading zero."""
    tracing = _load_tracing()
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
