"""Literal grammars for config files.

Growth functions are written as nested literals:

    power(2)  power(2, 0.5)  powerlog(2, 1, 7.389)
    compose_inv(power(4), power(2))      # outer o inner^{-1}
    recip_reflect(compose_inv(...))

Densities are arithmetic expressions in ``y`` over those literals, e.g.

    1 / (y^2 * compose_inv(power(4), power(2))(1/y))

with ``*``, ``/``, parentheses, ``y^<exponent>``, numbers, and growth
literals applied to a subexpression of ``y``.  Measures and boxes are
plain JSON structures; see :func:`parse_measure`.

Parse errors raise :class:`ConfigError` with a position diagnostic.
"""

from __future__ import annotations

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
from .measure import (
    AtomicMeasure,
    CarlesonBox,
    DensityMeasure,
    RestrictedMeasure,
    UpperHalfPlaneMeasure,
    WeightedVolume,
)

__all__ = ["ConfigError", "parse_growth", "parse_density", "parse_measure", "parse_box"]


class ConfigError(ValueError):
    """Malformed configuration input."""


@contextmanager
def _rejected_values(what: str):
    """Re-raise a value that a constructor or conversion rejects (a
    ``ValueError``, ``TypeError`` or missing key or index) as a
    ``ConfigError`` naming ``what``; a ``ConfigError`` passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError, LookupError) as exc:
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


def parse_box(spec) -> CarlesonBox:
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        center, length = spec
    elif isinstance(spec, dict):
        extra = set(spec) - {"center", "length"}
        if extra:
            raise ConfigError(f"unknown box keys {sorted(extra)}")
        center, length = spec.get("center"), spec.get("length")
    else:
        raise ConfigError(f"cannot parse box from {spec!r}")
    with _rejected_values(f"box {spec!r}"):
        return CarlesonBox(float(center), float(length))


def parse_test_function(spec):
    """Test function from its JSON structure.

    Kinds: ``hardy_kernel`` (z0, phi), ``bergman_kernel`` (z0, phi, alpha),
    ``indicator`` (lam, box), ``poisson_of_step`` (edges, values).
    """
    from .maximal import StepFunction1D
    from .spaces import BergmanKernel, HardyKernel, IndicatorScaled, PoissonOfStep

    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"test function spec must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    keys = set(spec) - {"kind"}
    with _rejected_values(f"test function spec {spec!r}"):
        if kind == "hardy_kernel":
            if keys - {"z0", "phi"}:
                raise ConfigError(f"unknown hardy_kernel keys {sorted(keys)}")
            x0, y0 = spec["z0"]
            return HardyKernel(complex(x0, y0), parse_growth(spec["phi"]))
        if kind == "bergman_kernel":
            if keys - {"z0", "phi", "alpha"}:
                raise ConfigError(f"unknown bergman_kernel keys {sorted(keys)}")
            x0, y0 = spec["z0"]
            return BergmanKernel(
                complex(x0, y0), parse_growth(spec["phi"]), float(spec.get("alpha", 0.0))
            )
        if kind == "indicator":
            if keys - {"lam", "box"}:
                raise ConfigError(f"unknown indicator keys {sorted(keys)}")
            return IndicatorScaled(float(spec["lam"]), parse_box(spec["box"]))
        if kind == "poisson_of_step":
            if keys - {"edges", "values"}:
                raise ConfigError(f"unknown poisson_of_step keys {sorted(keys)}")
            g = StepFunction1D(
                np.asarray(spec["edges"], dtype=float),
                np.asarray(spec["values"], dtype=float),
            )
            return PoissonOfStep(g)
    raise ConfigError(f"unknown test function kind {kind!r}")


def parse_measure(spec) -> UpperHalfPlaneMeasure:
    """Measure from its JSON structure; see the module docstring."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"measure spec must be an object with a 'kind': {spec!r}")
    kind = spec["kind"]
    keys = set(spec) - {"kind"}
    with _rejected_values(f"{kind} measure"):
        if kind == "atomic":
            if keys - {"atoms"}:
                raise ConfigError(f"unknown atomic keys {sorted(keys - {'atoms'})}")
            atoms = spec.get("atoms", [])
            if atoms:
                xs, ys, ms = zip(*[(float(a[0]), float(a[1]), float(a[2])) for a in atoms])
            else:
                xs, ys, ms = (), (), ()
            return AtomicMeasure(xs, ys, ms)
        if kind == "weighted_volume":
            if keys - {"alpha"}:
                raise ConfigError(f"unknown weighted_volume keys {sorted(keys - {'alpha'})}")
            return WeightedVolume(float(spec.get("alpha", 0.0)))
        if kind == "density":
            if keys - {"expr"}:
                raise ConfigError(f"unknown density keys {sorted(keys - {'expr'})}")
            return DensityMeasure(parse_density(spec["expr"]), label=spec["expr"])
        if kind == "section6":
            if keys - {"phi1", "phi2", "variant", "alpha"}:
                raise ConfigError(f"unknown section6 keys {sorted(keys)}")
            from .multipliers import section6_measure

            mu, _ = section6_measure(
                parse_growth(spec["phi1"]),
                parse_growth(spec["phi2"]),
                spec.get("variant", "hardy_to_bergman"),
                float(spec.get("alpha", 0.0)),
            )
            return mu
        if kind == "restricted":
            if keys - {"base", "region"}:
                raise ConfigError(f"unknown restricted keys {sorted(keys)}")
            return RestrictedMeasure(parse_measure(spec["base"]), parse_box(spec["region"]))
    raise ConfigError(f"unknown measure kind {kind!r}")
