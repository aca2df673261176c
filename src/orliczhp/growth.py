"""Growth functions and their calculus.

A growth function is a continuous nondecreasing map of [0, inf) onto itself
with value 0 at 0.  The package works with a closed family of them:

* ``Power(p, scale)``            -- ``scale * t**p``
* ``PowerLog(q, a, c)``          -- ``t**q * log(c + t)**a``
* ``ComposedInverse(outer, inner)`` -- ``outer(inner^{-1}(t))``
* ``ReciprocalReflected(base)``  -- ``1 / base(1 / t)``, 0 at 0
* ``Tabulated(knots_t, knots_y)`` -- piecewise-linear through sample pairs

Every kind gives the line modulars of a rational test kernel
(``kernel_lines``): exp-sinh rows, or a beta function for a ``Power``.

On top of evaluation and inversion this module provides the convex
conjugate, doubling and Dini-integral classification, pointwise-derivative
index estimates, and the submultiplicativity conditions used by the
multiplier testers.  All classification output is grid-sampled: constants
are reported as estimates (grid extrema), never as certified suprema.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .integrals import DEFAULT_SPEC, LineRowsResult, QuadratureSpec, beta
from .integrals import _EXP_SINH, _doubly_exponential  # the row-batched level loop

__all__ = [
    "GrowthFunction",
    "Power",
    "PowerLog",
    "ComposedInverse",
    "ReciprocalReflected",
    "Tabulated",
    "LogGrid",
    "ConditionVerdict",
    "GrowthClassification",
    "conjugate",
    "estimate_indices",
    "classify",
    "derived_pair",
    "nominal_upper_type",
]


class BracketingError(RuntimeError):
    """The requested inverse value exceeds the representable range."""


class GrowthDomainError(ValueError):
    """Evaluation outside the function's domain (tabulated span, t < 0)."""


@dataclass(frozen=True)
class LogGrid:
    """Log-uniform sample grid on [t_min, t_max]."""

    t_min: float = 1e-6
    t_max: float = 1e6
    points: int = 512

    def __post_init__(self) -> None:
        if not (0 < self.t_min < self.t_max):
            raise ValueError("need 0 < t_min < t_max")
        if self.points < 8:
            raise ValueError("need at least 8 grid points")

    def values(self) -> np.ndarray:
        """The grid points: one read-only array shared by equal grids."""
        return _geomspace(self.t_min, self.t_max, self.points)

    def subsampled(self, n: int) -> np.ndarray:
        return _geomspace(self.t_min, self.t_max, min(n, self.points))


@lru_cache(maxsize=64)
def _geomspace(t_min: float, t_max: float, points: int) -> np.ndarray:
    out = np.geomspace(t_min, t_max, points)
    out.flags.writeable = False
    return out


DEFAULT_GRID = LogGrid()


def _nonnegative(t, message: str):
    """``t`` as a float when it is 0-d (a numpy float as it is), else as a
    float array; ``GrowthDomainError(message)`` if an entry is negative."""
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
        t = t if t.ndim else float(t)
    if t < 0 if isinstance(t, float) else (t < 0).any():
        raise GrowthDomainError(message)
    return t


class GrowthFunction:
    """Base class; subclasses implement ``_eval`` on positive arrays."""

    def _eval(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, t):
        """``phi(t)`` entrywise, 0 at 0 and NaN at NaN.  A 0-d argument gives a
        float and builds no 0-d array: ``_eval`` gets the numpy scalar that
        ``np.maximum`` gives on a 0-d array (scalar math; overflow is ``inf``)."""
        t = _nonnegative(t, "growth functions are defined on t >= 0")
        with np.errstate(over="ignore", divide="ignore"):
            if isinstance(t, float):
                if not t > 0:  # 0, or nan
                    return 0.0 if t == 0 else math.nan
                return float(self._eval(np.float64(max(t, 1e-300))))
            return np.where(t > 0, self._eval(np.maximum(t, 1e-300)), np.abs(t))  # 0, or nan

    # -- inversion ---------------------------------------------------------

    def inverse(self, y, tol: float = 1e-12):
        """Solve ``phi(t) = y`` for strictly increasing ``phi``; NaN at NaN.

        Closed forms where the kind admits one, bracketed bisection with
        geometric bracket expansion otherwise.  A 0-d argument gives a float,
        its sign checked on the float; ``_inverse`` gets it as a 0-d array.
        """
        y = _nonnegative(y, "inverse arguments must be nonnegative")
        if isinstance(y, float):
            return float(self._inverse(np.asarray(y), tol))
        return self._inverse(y, tol)

    def _inverse(self, y: np.ndarray, tol: float) -> np.ndarray:
        return _bisect_inverse(self, y, tol)

    def kernel_amplitude(self, y0: float, s: float) -> float:
        """``phi^{-1}(1 / y0^s)``, the amplitude of a kernel of exponent ``s``."""
        return float(self.inverse(1.0 / y0 ** s))

    def kernel_factor(self, a: float, s: float) -> Optional[tuple[float, float]]:
        """``(m, factor)`` when every line modular is ``factor y0 (y0 / (y0 +
        y))^(2m - 1)``, a power of the height (a ``Power``); else ``None``."""
        return None

    def kernel_lines(self, a: float, s: float, y0: float, ys,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> LineRowsResult:
        """``int_R phi(a (y0^2 / ((x - x0)^2 + (y + y0)^2))^s) dx`` at each
        height ``y`` of ``ys``, whatever ``x0``: the line modulars of a kernel.

        In ``x - x0 = (y + y0) u`` each is ``(y + y0) G_s(c)``, ``c = a (y0 /
        (y + y0))^(2s)``, ``G_s(c) = 2 int_0^inf phi(c (1 + u^2)^-s) du``: one
        exp-sinh level loop, a row per height.  The closed form of
        ``kernel_factor`` runs no quadrature (every row converges, error 0)."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        closed = self.kernel_factor(a, s)
        if closed is not None:
            m, factor = closed
            values = factor * y0 * (y0 / (y0 + ys)) ** (2.0 * m - 1.0)
            return LineRowsResult(values, np.zeros(ys.shape), np.full(ys.shape, True))
        c = a * (y0 / (y0 + ys)) ** (2.0 * s)
        g, err, converged = _doubly_exponential(
            lambda u, rows: self(c[rows, None] * (1.0 + u * u) ** -s),
            _EXP_SINH, spec.abs_tol, spec.rel_tol, c.size,
        )
        width = 2.0 * (y0 + ys)
        return LineRowsResult(width * g, width * err, converged)


def _bisect_inverse(phi: GrowthFunction, y: np.ndarray, tol: float) -> np.ndarray:
    out = np.where(np.isnan(y), np.nan, 0.0)  # NaN, or 0 until bisected
    pos = y > 0
    if not np.any(pos):
        return out
    yp = y[pos]
    hi = np.maximum(yp, 1.0)
    for _ in range(1100):
        short = phi(hi) < yp
        if not np.any(short):
            break
        hi = np.where(short, hi * 4.0, hi)
        if np.any(hi[short] > 1e300):
            raise BracketingError("inverse target exceeds representable range")
    else:
        raise BracketingError("bracket expansion failed")
    lo = np.zeros_like(yp)
    floor = 1e-300
    with np.errstate(invalid="ignore"):  # y = inf: inf - inf never converges
        for _ in range(140):
            mid = 0.5 * (lo + hi)
            v = phi(mid)
            high = v > yp
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
            if np.all(np.abs(v - yp) <= tol * np.maximum(yp, floor)):
                break
    out[pos] = 0.5 * (lo + hi)
    return out


@dataclass(frozen=True)
class Power(GrowthFunction):
    """``scale * t**p`` with p > 0."""

    p: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.p < math.inf:
            raise ValueError("exponent must be positive and finite")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")

    def _eval(self, t: np.ndarray) -> np.ndarray:
        return self.scale * t ** self.p

    def _inverse(self, y: np.ndarray, tol: float) -> np.ndarray:
        return (y / self.scale) ** (1.0 / self.p)

    def kernel_amplitude(self, y0: float, s: float) -> float:
        """As for every kind, except where ``y0^s`` or its reciprocal is no
        finite normal float (from ``s = 128`` at ``y0 = 2^8``): there
        ``y0^(-s/p) scale^(-1/p)``, which forms neither."""
        try:
            power = y0 ** s
        except OverflowError:
            power = math.inf
        if sys.float_info.min <= power < math.inf and 1.0 / power >= sys.float_info.min:
            return float(self.inverse(1.0 / power))
        return y0 ** (-s / self.p) * self.scale ** (-1.0 / self.p)

    def kernel_factor(self, a: float, s: float) -> tuple[float, float]:
        """``m = s p``, ``factor = scale a^p B(1/2, m - 1/2)`` (``inf`` for
        ``m <= 1/2``): the first beta closed form of ``integrals``."""
        m = s * self.p
        if m <= 0.5:
            return m, math.inf
        return m, self.scale * a ** self.p * beta(0.5, m - 0.5)


@dataclass(frozen=True)
class PowerLog(GrowthFunction):
    """``t**q * log(c + t)**a`` with q >= 1, a > 0, c > 1.

    The constant ``c`` is validated, not derived: construction scans
    ``t -> phi(t)/t`` for monotonicity on the default grid and rejects
    constants that break it.
    """

    q: float
    a: float
    c: float

    def __post_init__(self) -> None:
        if not 1 <= self.q < math.inf:
            raise ValueError("power exponent must be finite and at least 1")
        if not 0 < self.a < math.inf:
            raise ValueError("log exponent must be positive and finite")
        if not 1 < self.c < math.inf:
            raise ValueError("additive constant must be finite and exceed 1")
        ts = DEFAULT_GRID.values()
        ratio = self._eval(ts) / ts
        if np.any(np.diff(ratio) < -1e-12 * ratio[:-1]):
            raise ValueError("phi(t)/t is not nondecreasing; increase the constant")

    def _eval(self, t: np.ndarray) -> np.ndarray:
        return t ** self.q * np.log(self.c + t) ** self.a


@dataclass(frozen=True)
class ComposedInverse(GrowthFunction):
    """``outer(inner^{-1}(t))``; inner must be strictly increasing."""

    outer: GrowthFunction
    inner: GrowthFunction

    def _eval(self, t: np.ndarray) -> np.ndarray:
        return np.asarray(self.outer(self.inner.inverse(t)))

    def _inverse(self, y: np.ndarray, tol: float) -> np.ndarray:
        return np.asarray(self.inner(self.outer.inverse(y, tol)))


@dataclass(frozen=True)
class ReciprocalReflected(GrowthFunction):
    """``1 / base(1 / t)`` for t > 0, value 0 at t = 0."""

    base: GrowthFunction

    def _eval(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore"):
            denom = np.asarray(self.base(1.0 / t))
            return np.where(denom > 0, 1.0 / denom, np.inf)

    def _inverse(self, y: np.ndarray, tol: float) -> np.ndarray:
        out = np.where(np.isnan(y), np.nan, 0.0)
        pos = y > 0
        if np.any(pos):
            with np.errstate(divide="ignore", over="ignore"):  # y = inf, or subnormal
                out[pos] = 1.0 / np.asarray(self.base.inverse(1.0 / y[pos], tol))
        return out


@dataclass(frozen=True)
class Tabulated(GrowthFunction):
    """Piecewise-linear interpolant through increasing sample pairs.

    The first knot must be (0, 0); evaluation beyond the knot span raises.
    """

    knots_t: tuple
    knots_y: tuple

    def __post_init__(self) -> None:
        t = np.asarray(self.knots_t, dtype=float)
        y = np.asarray(self.knots_y, dtype=float)
        if t.shape != y.shape or t.ndim != 1 or t.size < 2:
            raise ValueError("need matching 1-d knot arrays with >= 2 points")
        if t[0] != 0.0 or y[0] != 0.0:
            raise ValueError("first knot must be (0, 0)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("knots must be finite")
        if np.any(np.diff(t) <= 0) or np.any(np.diff(y) < 0):
            raise ValueError("knots must increase")
        object.__setattr__(self, "knots_t", tuple(t))
        object.__setattr__(self, "knots_y", tuple(y))

    def _eval(self, t: np.ndarray) -> np.ndarray:
        hi = self.knots_t[-1]
        if np.any(t > hi * (1 + 1e-12)):
            raise GrowthDomainError(f"argument beyond tabulated span [0, {hi:g}]")
        return np.interp(t, self.knots_t, self.knots_y)

    def _inverse(self, y: np.ndarray, tol: float) -> np.ndarray:
        hi = self.knots_y[-1]
        if np.any(y > hi * (1 + 1e-12)):
            raise BracketingError(f"inverse target beyond tabulated range [0, {hi:g}]")
        return np.interp(y, self.knots_y, self.knots_t)


def _pointwise(phi: GrowthFunction, inverse: bool = False) -> bool:
    """Whether ``phi`` (its inverse, with ``inverse``) maps each entry of an
    array on its own, so that one call on a stacked array is bitwise the
    calls on its parts.  A bisected inverse (``_bisect_inverse``) is not:
    its step count follows the slowest entry of the array."""
    if isinstance(phi, (Power, Tabulated)):
        return True
    if isinstance(phi, PowerLog):
        return not inverse
    if isinstance(phi, ComposedInverse):
        return _pointwise(phi.outer, inverse) and _pointwise(phi.inner, not inverse)
    if isinstance(phi, ReciprocalReflected):
        return _pointwise(phi.base, inverse)
    return False


def nominal_upper_type(phi: GrowthFunction) -> Optional[float]:
    """Growth exponent carried by the kind itself, when there is one.

    Powers return p, power-logs their power part q (the log factor is
    slowly varying), a composition ``outer o inner^{-1}`` the quotient of
    nominal exponents, a reflected reciprocal its base's exponent.
    """
    if isinstance(phi, Power):
        return phi.p
    if isinstance(phi, PowerLog):
        return phi.q
    if isinstance(phi, ComposedInverse):
        qo = nominal_upper_type(phi.outer)
        qi = nominal_upper_type(phi.inner)
        if qo is not None and qi is not None and qi > 0:
            return qo / qi
        return None
    if isinstance(phi, ReciprocalReflected):
        return nominal_upper_type(phi.base)
    return None


# ---------------------------------------------------------------------------
# Convex conjugate
# ---------------------------------------------------------------------------

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _convexity_scan(phi: GrowthFunction, ts: np.ndarray) -> None:
    mids = 0.5 * (ts[:-1] + ts[1:])
    lhs = phi(mids)
    rhs = 0.5 * (phi(ts[:-1]) + phi(ts[1:]))
    bad = lhs > rhs * (1 + 1e-9) + 1e-300
    if np.any(bad):
        t_bad = mids[np.argmax(bad)]
        raise ValueError(f"midpoint convexity fails near t = {t_bad:g}")


def conjugate(phi: GrowthFunction, s: float, grid: LogGrid = DEFAULT_GRID) -> float:
    """Convex conjugate ``sup_t (t*s - phi(t))`` by grid scan plus
    golden-section refinement; returns ``inf`` when the objective is still
    climbing at the right edge of the grid with slope bounded away from 0.
    ``phi`` must pass a midpoint-convexity scan on the grid, or
    ``ValueError`` is raised.
    """
    if s < 0:
        raise GrowthDomainError("conjugate argument must be nonnegative")
    ts = np.concatenate([[0.0], grid.values()])
    _convexity_scan(phi, ts[1:])
    g = s * ts - phi(ts)
    i = int(np.argmax(g))
    if i == len(ts) - 1:
        slope = (g[-1] - g[-2]) / (ts[-1] - ts[-2])
        if slope > 1e-12 * max(1.0, s):
            return math.inf
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, len(ts) - 1)]
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1 = s * x1 - phi(x1)
    f2 = s * x2 - phi(x2)
    for _ in range(80):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = s * x2 - phi(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = s * x1 - phi(x1)
    return float(max(g[i], f1, f2, 0.0))


# ---------------------------------------------------------------------------
# Indices and classification
# ---------------------------------------------------------------------------

_INDEX_STEP = 1e-5  # relative step of the index estimates' central differences
_EDGE_SLOPE_EPS = 0.02  # log-log edge slope that counts as growth (or as not flat)
_DINI_J_MAX = 60  # deepest dyadic annulus of the Dini integral
_DINI_TAIL_FRACTION = 0.01  # share of the total a divergent decade still adds
_TILDE_EDGE_FACTOR = 1.5  # grid max over interior max that fails a tilde scan


def estimate_indices(phi: GrowthFunction, grid: LogGrid = DEFAULT_GRID) -> tuple[float, float]:
    """Grid extrema of ``t phi'(t) / phi(t)`` with central differences of
    relative step ``_INDEX_STEP = 1e-5``.

    These are inner estimates: the reported minimum can exceed the true
    infimum and the maximum undershoot the true supremum.
    """
    ts = grid.values()
    h = _INDEX_STEP
    d = (phi(ts * (1 + h)) - phi(ts * (1 - h))) / (2 * ts * h)
    vals = phi(ts)
    ok = vals > 1e-280
    ratio = ts[ok] * d[ok] / vals[ok]
    if ratio.size == 0:
        raise GrowthDomainError("function underflows on the whole grid")
    return float(np.min(ratio)), float(np.max(ratio))


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    constant: Optional[float] = None
    witness: Optional[tuple] = None

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "constant": self.constant,
            "witness": list(self.witness) if self.witness is not None else None,
        }


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# classify's results by (phi, grid), while a _classification_memo is open
_CLASSIFY_MEMO: ContextVar[Optional[dict]] = ContextVar("classify_memo", default=None)


def _gauss_legendre(phi: GrowthFunction, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """8-point Gauss-Legendre values of ``int phi(s)/s^2 ds`` over the
    intervals ``[lo, hi]``, elementwise."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    s = mid[..., None] + half[..., None] * _GL_NODES
    with np.errstate(over="ignore"):
        vals = phi(s) / s ** 2
    return np.einsum("...k,k->...", vals, _GL_WEIGHTS) * half


def _growing_at_edge(ts: np.ndarray, vals: np.ndarray, right: bool) -> bool:
    """Whether the least-squares log-log slope over the outermost decade of
    the grid rises toward that edge by more than ``_EDGE_SLOPE_EPS``."""
    mask = vals > 0
    ts, vals = ts[mask], vals[mask]
    if ts.size < 4:
        return False
    edge = ts[-1] if right else ts[0]
    window = (ts >= edge / 10.0) if right else (ts <= edge * 10.0)
    lt, lv = np.log(ts[window]), np.log(vals[window])
    if lt.size < 3:
        return False
    slope = np.polyfit(lt, lv, 1)[0]
    return slope > _EDGE_SLOPE_EPS if right else slope < -_EDGE_SLOPE_EPS


@contextmanager
def _classification_memo():
    """Within the block, ``classify`` computes each ``(phi, grid)`` value
    once; the memo is dropped when the block exits, normally or not."""
    token = _CLASSIFY_MEMO.set({})
    try:
        yield
    finally:
        _CLASSIFY_MEMO.reset(token)


def classify(phi: GrowthFunction, grid: LogGrid = DEFAULT_GRID) -> GrowthClassification:
    """Doubling constant, Dini-quotient verdict, index and type estimates,
    and the three submultiplicativity conditions.

    Only the check that ``phi > 0`` on the grid runs here (it raises
    ``GrowthDomainError``); each condition is computed when first read.
    Inside ``_classification_memo`` (one ``cli.run``) equal ``(phi, grid)``
    values share one result, so each condition is computed at most once
    per run.

    The Dini integral ``int_0^t phi(s)/s^2 ds`` at every grid point is one
    cumulative sum: 8-point Gauss-Legendre over the dyadic annuli from
    ``2^-(_DINI_J_MAX + 1) t_0`` up to the first grid point ``t_0``
    (``_DINI_J_MAX = 60``), then over each grid cell.  It is declared
    divergent at 0 when each of the last two decades of the annuli below a
    mid-grid reference point still contributes more than
    ``_DINI_TAIL_FRACTION = 0.01`` of that point's annulus total.  This
    resolves exponents roughly 0.05 away from the critical case; finer
    behaviour is beyond a 60-annulus probe and is reported as-is.  Growth
    at a grid edge is a log-log slope above ``_EDGE_SLOPE_EPS = 0.02``; a
    submultiplicativity scan fails when its grid maximum exceeds
    ``_TILDE_EDGE_FACTOR = 1.5`` times its maximum a decade inside the
    grid edges.
    """
    memo = _CLASSIFY_MEMO.get()
    if memo is None:
        return GrowthClassification(phi, grid)
    key = (phi, grid)
    if key not in memo:
        memo[key] = GrowthClassification(phi, grid)
    return memo[key]


class GrowthClassification:
    """``classify``'s conditions of ``phi`` on ``grid``, each a cached
    attribute computed when first read."""

    def __init__(self, phi: GrowthFunction, grid: LogGrid) -> None:
        self.phi, self.grid = phi, grid
        self._ts = grid.values()
        self._vals = phi(self._ts)
        if np.any(self._vals <= 0):
            raise GrowthDomainError("function vanishes on part of the grid")

    @cached_property
    def doubling(self) -> ConditionVerdict:
        """phi(2t) <= K phi(t)"""
        ts = self._ts
        ratios = self.phi(2.0 * ts) / self._vals
        grows = _growing_at_edge(ts, ratios, right=True)
        return ConditionVerdict(
            passed=not grows,
            constant=None if grows else float(np.max(ratios)),
            witness=(float(ts[-1]),) if grows else None,
        )

    @cached_property
    def dini(self) -> ConditionVerdict:
        """int_0^t phi(s)/s^2 ds <= C phi(t)/t"""
        phi, ts = self.phi, self._ts
        # the dyadic annuli [2^-(j+1) t, 2^-j t] below t_0, then one cumulative
        # integral over the grid cells; the annuli below the reference point
        # probe convergence at 0
        ref = np.argmin(np.abs(np.log(ts)))
        hi = ts[[0, ref], None] * 2.0 ** -np.arange(_DINI_J_MAX + 1)
        start, a_j = _gauss_legendre(phi, 0.5 * hi, hi)
        cells = _gauss_legendre(phi, ts[:-1], ts[1:])
        totals = np.cumsum(np.concatenate([[start.sum()], cells]))
        quot = totals * ts / self._vals
        decades = np.floor(np.arange(_DINI_J_MAX + 1) * math.log10(2.0)).astype(int)
        dsums = np.bincount(decades, weights=a_j)
        total = float(a_j.sum())
        tail_bad = (
            dsums.size >= 2
            and dsums[-1] > _DINI_TAIL_FRACTION * total
            and dsums[-2] > _DINI_TAIL_FRACTION * total
        )
        passed = not tail_bad and not _growing_at_edge(ts, quot, right=True)
        return ConditionVerdict(
            passed=passed,
            constant=float(np.max(quot)) if passed else None,
            witness=None if passed else (float(ts[ref]) if tail_bad else float(ts[-1]),),
        )

    @cached_property
    def _indices(self) -> tuple[float, float]:
        return estimate_indices(self.phi, self.grid)

    lower_index = property(lambda self: self._indices[0])
    upper_index = property(lambda self: self._indices[1])

    @cached_property
    def upper_type_estimate(self) -> float:
        q_nom = nominal_upper_type(self.phi)
        return q_nom if q_nom is not None else self.upper_index

    @cached_property
    def lower_type_estimate(self) -> float:
        return self.upper_type_estimate if isinstance(self.phi, Power) else self.lower_index

    @cached_property
    def upper_type_constant(self) -> float:
        """The witness constant of the upper-type inequality with exponent
        ``upper_type_estimate``."""
        phi, sub = self.phi, self.grid.subsampled(96)
        t_ge1 = sub[sub >= 1.0]
        with np.errstate(over="ignore", invalid="ignore"):
            wit = phi(sub[:, None] * t_ge1[None, :]) / (
                t_ge1[None, :] ** self.upper_type_estimate * phi(sub)[:, None])
        return float(np.nanmax(np.where(np.isfinite(wit), wit, np.nan)))

    @cached_property
    def tilde_conditions(self) -> dict:
        phi, sub = self.phi, self.grid.subsampled(96)
        return {
            "product": _tilde_product(phi, sub),
            "ratio_power": _tilde_ratio_power(phi, sub, self.upper_type_estimate),
            "ratio_value": _tilde_ratio_value(phi, sub),
        }

    @property
    def nabla2_passed(self) -> bool:
        return self.dini.passed

    @property
    def tilde_passed(self) -> bool:
        return all(v.passed for v in self.tilde_conditions.values())


def _scan_2d(ratio: np.ndarray, s: np.ndarray, t: np.ndarray) -> ConditionVerdict:
    finite = np.isfinite(ratio)
    if not np.any(finite):
        return ConditionVerdict(False, None, (float(s[0]), float(t[0])))
    full = float(np.max(ratio[finite]))
    ds = s <= s[-1] / 10.0
    ds &= s >= s[0] * 10.0
    dt = t <= t[-1] / 10.0
    dt &= t >= t[0] * 10.0
    interior = ratio[np.ix_(ds, dt)] if np.any(ds) and np.any(dt) else ratio
    inner = float(np.max(interior[np.isfinite(interior)])) if interior.size else full
    if full > _TILDE_EDGE_FACTOR * max(inner, 1e-300):
        i, j = np.unravel_index(np.argmax(np.where(finite, ratio, -np.inf)), ratio.shape)
        return ConditionVerdict(False, None, (float(s[i]), float(t[j])))
    return ConditionVerdict(True, full, None)


def _tilde_product(phi: GrowthFunction, pts: np.ndarray) -> ConditionVerdict:
    with np.errstate(over="ignore", invalid="ignore"):
        num = phi(pts[:, None] * pts[None, :])
        den = phi(pts)[:, None] * phi(pts)[None, :]
        ratio = num / den
    return _scan_2d(ratio, pts, pts)


def _tilde_ratio_power(phi: GrowthFunction, pts: np.ndarray, q: float) -> ConditionVerdict:
    ab = pts[pts >= 1.0]
    if ab.size < 4:
        ab = np.geomspace(1.0, 1e6, 64)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = phi(ab[:, None] / ab[None, :]) * ab[None, :] ** q / phi(ab)[:, None]
    return _scan_2d(ratio, ab, ab)


def _tilde_ratio_value(phi: GrowthFunction, pts: np.ndarray) -> ConditionVerdict:
    ab = pts[pts <= 1.0]
    if ab.size < 4:
        ab = np.geomspace(1e-6, 1.0, 64)
    a = ab[:, None]
    b = ab[None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.where(a <= b, phi(a / b) * phi(ab)[None, :] / phi(ab)[:, None], np.nan)
    return _scan_2d(ratio, ab, ab)


def derived_pair(
    phi1: GrowthFunction, phi2: GrowthFunction
) -> tuple[ComposedInverse, ReciprocalReflected]:
    """The composition ``phi2 o phi1^{-1}`` and its reflected reciprocal
    ``t -> 1 / (phi2 o phi1^{-1})(1/t)``."""
    composed = ComposedInverse(outer=phi2, inner=phi1)
    return composed, ReciprocalReflected(base=composed)
