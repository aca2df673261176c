"""Literal grammars and typed schemas for config files.

Growth functions are written as nested literals:

    power(2)  power(2, 0.5)  powerlog(2, 1, 7.389)
    compose_inv(power(4), power(2))      # outer o inner^{-1}
    recip_reflect(compose_inv(...))

Densities are arithmetic expressions in ``y`` over those literals, e.g.

    1 / (y^2 * compose_inv(power(4), power(2))(1/y))

with ``*``, ``/``, parentheses, ``y^<exponent>``, numbers, and growth
literals applied to a subexpression of ``y``.

Measures, test functions and boxes are JSON objects, each checked against
a schema ``key -> (parser, default or REQUIRED)`` by :func:`parse_fields`.
A measure or test function names its ``kind``: see the kind tables
:data:`MEASURE_KINDS` and :data:`TEST_FUNCTION_KINDS`.  The CLI declares one
schema per command the same way.  Every rejection raises :class:`ConfigError`.
"""

from __future__ import annotations

import dataclasses
import math
import re
from contextlib import contextmanager
from typing import Callable

import numpy as np

from .growth import (
    ComposedInverse,
    GrowthFunction,
    Power,
    PowerLog,
    ReciprocalReflected,
    Tabulated,
)
from .maximal import StepFunction1D
from .measure import (
    AtomicMeasure,
    CarlesonBox,
    DensityMeasure,
    RestrictedMeasure,
    UpperHalfPlaneMeasure,
    WeightedVolume,
)
from .multipliers import section6_measure
from .spaces import BergmanKernel, HardyKernel, IndicatorScaled, PoissonOfStep

__all__ = ["ConfigError", "parse_growth", "parse_density", "parse_measure", "parse_box"]


class ConfigError(ValueError):
    """Malformed configuration input."""


@contextmanager
def _rejected_values(what: str):
    """Re-raise a value that a constructor or conversion rejects (a
    ``ValueError``, ``TypeError``, overflow or missing key or index) as a
    ``ConfigError`` naming ``what``; a ``ConfigError`` passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, LookupError, OverflowError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+)|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ConfigError(f"cannot tokenize {text!r} at position {pos}")
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str]:
        tok = self.peek()
        if tok is None:
            raise ConfigError(f"unexpected end of {self.text!r}")
        self.i += 1
        return tok

    def expect(self, value: str) -> None:
        tok = self.next()
        if tok[1] != value:
            raise ConfigError(f"expected {value!r}, found {tok[1]!r} in {self.text!r}")

    def done(self) -> bool:
        return self.i >= len(self.tokens)

    # -- numbers -----------------------------------------------------------

    def number(self) -> float:
        sign = 1.0
        tok = self.next()
        if tok == ("op", "-"):
            sign = -1.0
            tok = self.next()
        elif tok == ("op", "+"):
            tok = self.next()
        if tok[0] != "num":
            raise ConfigError(f"expected a number, found {tok[1]!r} in {self.text!r}")
        return sign * float(tok[1])

    # -- growth literals ----------------------------------------------------

    def growth(self) -> GrowthFunction:
        tok = self.next()
        if tok[0] != "name":
            raise ConfigError(f"expected a growth literal, found {tok[1]!r}")
        name = tok[1]
        self.expect("(")
        if name == "power":
            p = self.number()
            scale = 1.0
            if self.peek() == ("op", ","):
                self.next()
                scale = self.number()
            self.expect(")")
            return Power(p, scale)
        if name == "powerlog":
            q = self.number()
            self.expect(",")
            a = self.number()
            self.expect(",")
            c = self.number()
            self.expect(")")
            return PowerLog(q, a, c)
        if name == "compose_inv":
            outer = self.growth()
            self.expect(",")
            inner = self.growth()
            self.expect(")")
            return ComposedInverse(outer=outer, inner=inner)
        if name == "recip_reflect":
            base = self.growth()
            self.expect(")")
            return ReciprocalReflected(base=base)
        if name == "tabulated":
            knots_t, knots_y = [], []
            while True:
                self.expect("(")
                knots_t.append(self.number())
                self.expect(",")
                knots_y.append(self.number())
                self.expect(")")
                if self.peek() == ("op", ","):
                    self.next()
                    continue
                break
            self.expect(")")
            return Tabulated(tuple(knots_t), tuple(knots_y))
        raise ConfigError(f"unknown growth literal {name!r}")

    # -- density expressions -------------------------------------------------

    def density_expr(self) -> Callable[[np.ndarray], np.ndarray]:
        left = self.density_factor()
        while True:
            tok = self.peek()
            if tok == ("op", "*"):
                self.next()
                right = self.density_factor()
                left = _combine(left, right, lambda a, b: a * b)
            elif tok == ("op", "/"):
                self.next()
                right = self.density_factor()
                left = _combine(left, right, _safe_divide)
            else:
                return left

    def density_factor(self) -> Callable[[np.ndarray], np.ndarray]:
        tok = self.peek()
        if tok is None:
            raise ConfigError(f"unexpected end of density expression {self.text!r}")
        if tok == ("op", "("):
            self.next()
            inner = self.density_expr()
            self.expect(")")
            return self._maybe_power(inner)
        if tok[0] == "num" or tok[1] in "+-":
            c = self.number()
            return lambda y, c=c: np.full_like(np.asarray(y, float), c)
        if tok == ("name", "y"):
            self.next()
            return self._maybe_power(lambda y: np.asarray(y, dtype=float))
        if tok[0] == "name":
            g = self.growth()
            self.expect("(")
            arg = self.density_expr()
            self.expect(")")

            def applied(y, g=g, arg=arg):
                with np.errstate(over="ignore", divide="ignore"):
                    return np.asarray(g(arg(y)))

            return applied
        raise ConfigError(f"unexpected token {tok[1]!r} in density {self.text!r}")

    def _maybe_power(self, base):
        if self.peek() == ("op", "^"):
            self.next()
            e = self.number()

            def powered(y, base=base, e=e):
                with np.errstate(over="ignore", divide="ignore"):
                    return np.asarray(base(y), dtype=float) ** e

            return powered
        return base


def _safe_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = a / b
    return np.where(b != 0, out, np.inf)


def _combine(f, g, op):
    def h(y):
        with np.errstate(over="ignore", invalid="ignore"):
            return op(np.asarray(f(y), dtype=float), np.asarray(g(y), dtype=float))
    return h


def parse_growth(text: str) -> GrowthFunction:
    with _rejected_values(f"growth literal {text!r}"):
        p = _Parser(text)
        g = p.growth()
    if not p.done():
        raise ConfigError(f"trailing input in growth literal {text!r}")
    return g


def parse_density(text: str) -> Callable[[np.ndarray], np.ndarray]:
    p = _Parser(text)
    f = p.density_expr()
    if not p.done():
        raise ConfigError(f"trailing input in density expression {text!r}")
    probe = f(np.geomspace(1e-3, 1e2, 7))
    if np.any(np.asarray(probe) < 0):
        raise ConfigError(f"density {text!r} is negative on probe points")
    return f


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------

REQUIRED = object()  # the default of a key that must be given


def parse_fields(spec, schema: dict, what: str) -> dict:
    """The typed values of the JSON object ``spec`` under ``schema``
    (``key -> (parser, default or REQUIRED)``), one per schema key."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{what} must be a JSON object, got {spec!r}")
    unknown = set(spec) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {what} keys {sorted(unknown)}")

    def value(key, parse, default):
        if key in spec:
            with _rejected_values(f"{what}.{key}"):
                return parse(spec[key])
        if default is REQUIRED:
            raise ConfigError(f"{what} needs {key!r}")
        return default

    return {key: value(key, *entry) for key, entry in schema.items()}


def number(above: float = -math.inf):
    """Parser of a finite JSON number above ``above``, as a float."""
    def parse(v) -> float:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not above < v < math.inf:
            raise ValueError(f"expected a finite number > {above:g}, got {v!r}")
        return float(v)
    return parse


def integer(least: float = -math.inf):
    """Parser of a JSON integer at least ``least``."""
    def parse(v) -> int:
        if isinstance(v, bool) or not isinstance(v, int) or v < least:
            raise ValueError(f"expected an integer >= {least:g}, got {v!r}")
        return v
    return parse


def enum(*choices):
    """Parser of one of ``choices`` (strings or bools; 1 is not True)."""
    def parse(v):
        if not isinstance(v, (str, bool)) or v not in choices:
            raise ValueError(f"expected one of {list(choices)}, got {v!r}")
        return v
    return parse


def list_of(parse, least: int = 1, most: float = math.inf):
    """Parser of a JSON list of ``least`` to ``most`` items, each through ``parse``."""
    def parse_list(v) -> list:
        if not isinstance(v, list) or not least <= len(v) <= most:
            raise ValueError(f"expected a list of {least} to {most:g} items, got {v!r}")
        return [parse(item) for item in v]
    return parse_list


def text(v) -> str:
    """Parser of a JSON string."""
    if not isinstance(v, str):
        raise ValueError(f"expected a string, got {v!r}")
    return v


def section(cls):
    """Parser of a JSON object that sets up the dataclass ``cls``.  Its
    numeric fields are the keys, with their defaults: an int field takes a
    JSON integer and a float field a finite JSON number."""
    schema = {f.name: (integer() if isinstance(f.default, int) else number(), f.default)
              for f in dataclasses.fields(cls) if isinstance(f.default, (int, float))}
    return lambda spec: cls(**parse_fields(spec, schema, cls.__name__))


# called through the module name, so that a wrapper bound to it sees every call
GROWTH = (lambda text: parse_growth(text), REQUIRED)
WEIGHT = (number(-1.0), 0.0)  # a weight exponent alpha > -1
VARIANT = (enum("hardy_to_bergman", "bergman_to_bergman"), "hardy_to_bergman")


def parse_box(spec) -> CarlesonBox:
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        spec = dict(zip(("center", "length"), spec))
    schema = {"center": (number(), REQUIRED), "length": (number(0.0), REQUIRED)}
    return CarlesonBox(*parse_fields(spec, schema, "box").values())


def pick(spec, key: str, table: dict, what: str):
    """The entry of ``table`` that the string ``spec[key]`` names."""
    name = spec.get(key) if isinstance(spec, dict) else None
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{what} needs a {key!r} in {sorted(table)}, got {name!r}")
    return table[name]


def _parse_kind(spec, kinds: dict, what: str):
    """The object ``spec`` builds from a kind table ``kind -> (schema, constructor)``."""
    schema, build = pick(spec, "kind", kinds, what)
    what = f"{spec['kind']} {what}"
    fields = parse_fields({k: v for k, v in spec.items() if k != "kind"}, schema, what)
    with _rejected_values(what):
        return build(**fields)


def parse_measure(spec) -> UpperHalfPlaneMeasure:
    """Measure from an object with a ``kind`` of :data:`MEASURE_KINDS`."""
    return _parse_kind(spec, MEASURE_KINDS, "measure")


def parse_test_function(spec):
    """Test function from an object with a ``kind`` of :data:`TEST_FUNCTION_KINDS`."""
    return _parse_kind(spec, TEST_FUNCTION_KINDS, "test function")


POINT = (lambda v: complex(*list_of(number(), 2, 2)(v)), REQUIRED)  # [x, y]

MEASURE_KINDS = {
    "atomic": ({"atoms": (list_of(list_of(number(), 3, 3), 0), [])},  # [x, y, mass]
               lambda atoms: AtomicMeasure(*(zip(*atoms) if atoms else ((), (), ())))),
    "weighted_volume": ({"alpha": WEIGHT}, WeightedVolume),
    "density": ({"expr": (text, REQUIRED)},
                lambda expr: DensityMeasure(parse_density(expr), label=expr)),
    "section6": ({"phi1": GROWTH, "phi2": GROWTH, "variant": VARIANT, "alpha": WEIGHT},
                 lambda **v: section6_measure(**v)[0]),
    "restricted": ({"base": (lambda spec: parse_measure(spec), REQUIRED),
                    "region": (parse_box, REQUIRED)}, RestrictedMeasure),
}

TEST_FUNCTION_KINDS = {
    "hardy_kernel": ({"z0": POINT, "phi": GROWTH}, HardyKernel),
    "bergman_kernel": ({"z0": POINT, "phi": GROWTH, "alpha": WEIGHT}, BergmanKernel),
    "indicator": ({"lam": (number(), REQUIRED), "box": (parse_box, REQUIRED)}, IndicatorScaled),
    "poisson_of_step": ({"edges": (list_of(number()), REQUIRED),
                         "values": (list_of(number()), REQUIRED)},
                        lambda edges, values: PoissonOfStep(StepFunction1D(
                            np.asarray(edges), np.asarray(values)))),
}
