"""Package-level checks: every name a module exports exists.

The benchmark tracer wraps the public functions of each module and skips
names it cannot find, so a stale ``__all__`` entry left by a deletion
would otherwise go unseen."""

import importlib
import pkgutil

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
