"""Span tracing of the library's public functions, installed from outside.

``Tracer.install`` wraps every public function of the ``orliczhp`` modules
(the names in each module's ``__all__``, or its public functions when it
has none) and rebinds the wrapper in *every* module namespace that holds
the original object, so calls made through ``from .x import name`` are
traced as well.  ``GrowthFunction.__call__`` and ``GrowthFunction.inverse``
are wrapped on the class as ``growth.eval`` and ``growth.inverse``.

A span is ``(parent, case, name, start, end, nested)``: the span that was
open when it started, the case id set by the caller, the layer-qualified
function name, ``time.perf_counter`` bounds, and whether a span of the same
name was already open (so inclusive times are not counted twice).  Spans
stay in memory and are written out by ``write_spans`` at the end of a pass.

Besides spans the wrappers count work where it happens: integrand points
(by wrapping the integrand handed to the quadrature engines),
``converged=False`` results, family members, and growth-function argument
sizes.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = (
    "cli", "config", "corpus", "carleson", "measure",
    "spaces", "integrals", "growth", "maximal", "multipliers",
)

# functions whose first argument is the integrand (or |f|) to count points on
_POINT_COUNTED = {
    "integrals.integrate_halfplane",
    "integrals.integrate_line",
    "maximal.nontangential_maximal",
}
# engines returning an IntegralResult whose ``converged`` flag is counted
_CONVERGENCE_COUNTED = {
    "integrals.integrate_halfplane",
    "integrals.integrate_line",
    "integrals.tanh_sinh",
}
_FAMILY_FUNCTIONS = {"carleson.hardy_test_family", "carleson.bergman_test_family"}

# the per-layer metrics reported by a traced pass, in BENCHMARK.json order
COUNT_METRICS = (
    "integrals.integrate_halfplane.calls",
    "integrals.integrate_halfplane.points",
    "integrals.integrate_halfplane.unconverged",
    "integrals.integrate_line.calls",
    "integrals.integrate_line.points",
    "integrals.integrate_line.unconverged",
    "integrals.tanh_sinh.calls",
    "integrals.tanh_sinh.unconverged",
    "carleson.verify_equivalence.calls",
    "carleson.embedding_constant.probes",
    "carleson.kernel_testing_constant.probes",
    "carleson.test_family.members",
    "spaces.hardy_norm.calls",
    "spaces.bergman_norm.calls",
    "spaces.modular_halfplane.calls",
    "measure.box_mass.calls",
    "growth.eval.calls",
    "growth.eval.points",
    "growth.inverse.calls",
    "growth.inverse.points",
    "growth.classify.calls",
    "multipliers.omega_profile.calls",
    "maximal.dyadic_level_intervals.calls",
    "maximal.hl_maximal.calls",
    "maximal.nontangential_maximal.points",
    "trace.spans",
)
TIME_METRICS = (
    "integrals.integrate_halfplane.s",
    "integrals.integrate_line.s",
    "integrals.tanh_sinh.s",
    "carleson.verify_equivalence.s",
    "carleson.embedding_constant.s",
    "carleson.kernel_testing_constant.s",
    "carleson.test_family.s",
    "carleson.weak_type_constant.s",
    "measure.carleson_box_constant.s",
    "measure.box_mass.s",
    "spaces.hardy_norm.s",
    "spaces.bergman_norm.s",
    "spaces.modular_halfplane.self_s",
    "growth.eval.self_s",
    "growth.classify.s",
    "multipliers.omega_profile.s",
    "config.parse_measure.s",
    "cli.run.s",
    "maximal.dyadic_level_intervals.s",
    "maximal.hl_maximal.s",
    "maximal.nontangential_maximal.s",
)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__.startswith("orliczhp."):
            yield obj


class Tracer:
    """Collects spans and counters for one pass."""

    def __init__(self) -> None:
        self.case = "setup"
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, open_, counts = self.spans, self._stack, self._open, self.counts
        count_points = name in _POINT_COUNTED
        count_converged = name in _CONVERGENCE_COUNTED
        count_members = name in _FAMILY_FUNCTIONS
        count_args = name in ("growth.eval", "growth.inverse")
        points_key = name + ".points"

        def counted(f):
            def g(*a):
                counts[points_key] += np.broadcast(*a).size
                return f(*a)
            return g

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_points:
                args = (counted(args[0]),) + args[1:]
            elif count_args:
                counts[points_key] += np.size(args[1])
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            nested = open_[name] > 0
            open_[name] += 1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                open_[name] -= 1
                spans[sid] = (parent, self.case, name, t0, t1, nested)
            if count_converged and not out.converged:
                counts[name + ".unconverged"] += 1
            if count_members:
                counts["carleson.test_family.members"] += len(out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module in place."""
        import importlib

        modules = [importlib.import_module(f"orliczhp.{m}") for m in LAYERS]
        wrappers = {}
        for module in modules:
            for fn in _public_functions(module):
                if id(fn) not in wrappers:
                    qual = f"{fn.__module__.split('.', 1)[1]}.{fn.__name__}"
                    wrappers[id(fn)] = (fn, self._wrap(qual, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        growth = modules[LAYERS.index("growth")]
        cls = growth.GrowthFunction
        cls.__call__ = self._wrap("growth.eval", cls.__call__)
        cls.inverse = self._wrap("growth.inverse", cls.inverse)

    # -- reduction -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer counts and times derived from the recorded spans."""
        calls: Counter = Counter()
        inclusive: defaultdict = defaultdict(float)
        child_time: defaultdict = defaultdict(float)
        probes: Counter = Counter()
        for parent, _case, name, t0, t1, nested in self.spans:
            calls[name] += 1
            if not nested:
                inclusive[name] += t1 - t0
            if parent >= 0:
                child_time[parent] += t1 - t0
                if name == "spaces.modular_halfplane":
                    probes[self.spans[parent][2]] += 1
        self_time: defaultdict = defaultdict(float)
        for sid, (_p, _c, name, t0, t1, _n) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child_time[sid]

        counts = dict(self.counts)
        for key in COUNT_METRICS:
            layer_fn, kind = key.rsplit(".", 1)
            if kind == "calls":
                counts[key] = calls[layer_fn]
            elif kind == "probes":
                counts[key] = probes[layer_fn]
        counts["trace.spans"] = len(self.spans)
        times = {}
        for key in TIME_METRICS:
            layer_fn, kind = key.rsplit(".", 1)
            if layer_fn == "carleson.test_family":
                times[key] = (inclusive["carleson.hardy_test_family"]
                              + inclusive["carleson.bergman_test_family"])
            elif kind == "self_s":
                times[key] = self_time[layer_fn]
            else:
                times[key] = inclusive[layer_fn]
        return {
            "counts": {k: int(counts.get(k, 0)) for k in COUNT_METRICS},
            "times": times,
        }

    def write_spans(self, path) -> None:
        """One JSON array per line: ``[id, parent, case, name, start, end]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (parent, case, name, t0, t1, _nested) in enumerate(self.spans):
                fh.write(json.dumps([sid, parent, case, name, round(t0, 9), round(t1, 9)]))
                fh.write("\n")
