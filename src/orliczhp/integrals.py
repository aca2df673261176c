"""Quadrature on the line and the weighted upper half-plane, plus the
closed-form beta-function values used to cross-check it.

Two closed forms recur throughout the package and double as oracles for the
adaptive quadrature:

* ``int_R dx / |x + iy|^a = B(1/2, (a-1)/2) * y^(1-a)`` for ``a > 1``,
* ``int_0^inf y^a / (t + y)^b dy = B(a+1, b-a-1) * t^(a-b+1)`` for
  ``a > -1`` and ``b - a > 1``.

Quadrature engines: three double-exponential changes of variables
(Takahasi-Mori): tanh-sinh on a finite interval (absorbing endpoint
singularities), sinh-sinh on the whole line and exp-sinh on a half line.
Each map is defined once, as ``t -> (x, dx/dt)`` with its own cutoff
``t_cut``, and feeds both the level loop and the product rule below.  The
double-exponential rules reach the tolerance without a truncation window
for power-decaying integrands, so a line integral always covers the whole
line and a half-plane integral the whole width; only a finite height
segment asked for by the caller (density segments, divergence probes) or
the rectangle of ``integrate_box`` limits the domain.

The row-batched level loop ``_doubly_exponential`` integrates a stack of
rows at once, halving the step and reusing the previous nodes: each row has
its own running estimate and its own convergence test, and a row that has
converged is frozen and no longer evaluated.  ``tanh_sinh``, ``sinh_sinh``,
``exp_sinh`` and ``integrate_line`` are its one-row cases;
``integrate_line_rows`` exposes the stack for families of line integrals
(one row per height in ``spaces.hardy_norm``).  The product rule
``_product_rule`` integrates over the tensor grid of two maps for half-plane
and box integrals with nested levels: the coarse level is the full grid, and
each finer level adds only the new nodes inside a window of each axis that
drops the coarse nodes below 1e-20 of the sum (the tail truncation of
Takahasi-Mori and Bailey-Jeyabalan-Li).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "beta",
    "line_kernel_value",
    "halfplane_kernel_value",
    "tanh_sinh",
    "sinh_sinh",
    "exp_sinh",
    "integrate_line",
    "LineRowsResult",
    "integrate_line_rows",
    "integrate_halfplane",
    "integrate_box",
]


class QuadratureDomainError(ValueError):
    """Arguments outside the convergence region of a closed form."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances of the quadrature engines, and the lower height cutoff
    ``y_min`` used when a half-plane integral is probed for divergence at
    the real axis.  The integrals themselves are never truncated."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    y_min: float = 1e-6

    def __post_init__(self) -> None:
        # NaN fails every comparison, so each test is a negated range check
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.y_min < math.inf:
            raise ValueError("y_min must be positive and finite")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    converged: bool

    def __float__(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def beta(m: float, n: float) -> float:
    """Euler beta function B(m, n) for m, n > 0, via log-gamma."""
    if m <= 0 or n <= 0:
        raise QuadratureDomainError(f"beta requires positive arguments, got ({m}, {n})")
    return math.exp(math.lgamma(m) + math.lgamma(n) - math.lgamma(m + n))


def line_kernel_value(alpha: float, y: float) -> float:
    """Value of ``int_R dx / ((x^2 + y^2)^(alpha/2))`` for alpha > 1, y > 0."""
    if alpha <= 1:
        raise QuadratureDomainError(f"line kernel integral diverges for alpha={alpha} <= 1")
    if y <= 0:
        raise QuadratureDomainError("y must be positive")
    return beta(0.5, (alpha - 1) / 2) * y ** (1 - alpha)


def halfplane_kernel_value(alpha: float, beta_exp: float, t: float) -> float:
    """Value of ``int_0^inf y^alpha / (t + y)^beta_exp dy``.

    Requires alpha > -1 and beta_exp - alpha > 1; diverges otherwise.
    """
    if alpha <= -1 or beta_exp - alpha <= 1:
        raise QuadratureDomainError(
            f"height kernel integral diverges for alpha={alpha}, beta={beta_exp}"
        )
    if t <= 0:
        raise QuadratureDomainError("t must be positive")
    return beta(alpha + 1, beta_exp - alpha - 1) * t ** (alpha - beta_exp + 1)


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------

# -- the double-exponential maps ---------------------------------------------

class _DEMap(NamedTuple):
    """A double-exponential change of variables: ``nodes(t)`` is
    ``(x, dx/dt)``, the trapezoid rule in ``t`` stops at ``t_cut``, and the
    row-batched level loop halves its step up to level ``max_level``."""

    nodes: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    t_cut: float
    max_level: int

    def level(
        self,
        level: int,
        new_only: bool = False,
        t_lo: float = -math.inf,
        t_hi: float = math.inf,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Abscissae and weights ``h dx/dt`` of the trapezoid rule with step
        ``h = 2^-level`` at the nodes ``t = j h`` with ``|t| <= t_cut`` and
        ``t_lo <= t <= t_hi``; ``new_only`` keeps the nodes that halving the
        step adds (the odd multiples of ``h``)."""
        h = 2.0 ** (-level)
        lo = math.ceil(max(t_lo, -self.t_cut) / h)
        j = np.arange(lo, math.floor(min(t_hi, self.t_cut) / h) + 1)
        if new_only:
            j = j[j % 2 != 0]
        x, dxdt = self.nodes(j * h)
        return x, dxdt * h

    def affine(self, center: float, scale: float) -> "_DEMap":
        """The map followed by ``x -> center + scale * x``."""
        def nodes(t: np.ndarray):
            x, dxdt = self.nodes(t)
            return center + scale * x, scale * dxdt

        return self._replace(nodes=nodes)


def _sinh_sinh_nodes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ps = math.pi * np.sinh(t)
    return 0.5 * np.sinh(ps), 0.5 * math.pi * np.cosh(t) * np.cosh(ps)


def _exp_sinh_nodes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = np.exp(math.pi * np.sinh(t))
    return y, math.pi * np.cosh(t) * y


# t_cut = 6 keeps exp(pi*sinh(t)) just inside double range, which is where
# decaying integrands have long vanished
_SINH_SINH = _DEMap(_sinh_sinh_nodes, 6.0, 11)
_EXP_SINH = _DEMap(_exp_sinh_nodes, 6.0, 11)


def _tanh_sinh_map(a: float, b: float) -> _DEMap:
    """Tanh-sinh on (a, b).  Abscissae are built from the offset to the
    nearer endpoint, so kernels with poles just outside the interval stay
    well conditioned; the weights underflow beyond ``t_cut = 3.8``."""
    half = 0.5 * (b - a)

    def nodes(t: np.ndarray):
        u = 0.5 * math.pi * np.sinh(t)
        # distance to the nearer endpoint: 1 - |tanh u| = 2 / (e^{2|u|} + 1)
        offset = half * 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
        x = np.where(t >= 0, b - offset, a + offset)
        return x, half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2

    return _DEMap(nodes, 3.8, 12)


# -- the level loop and the product rule ------------------------------------

def _safe_products(fv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Treat a vanishing factor times an overflowing one as zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = fv * w
    return np.where((fv == 0.0) | (w == 0.0), 0.0, prod)


def _doubly_exponential(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    dmap: _DEMap,
    abs_tol: float,
    rel_tol: float,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level loop of the double-exponential rules over a stack of
    ``n_rows`` integrands.

    The level loop halves the step of the trapezoid rule under ``dmap``,
    reusing previous nodes, until two consecutive estimates of a row agree.
    ``f(x, live)`` gets the level's new abscissae and the indices of the
    rows still running, and returns their values, one row each (a 1-D
    result serves every live row).  A row that has converged is frozen.
    Returns per-row values, error estimates and convergence flags.
    """
    value = np.zeros(n_rows)
    err = np.full(n_rows, math.inf)
    converged = np.zeros(n_rows, dtype=bool)
    live = np.arange(n_rows)
    for level in range(2, dmap.max_level + 1):
        x, w = dmap.level(level, new_only=level > 2)
        with np.errstate(over="ignore", invalid="ignore"):
            fv = np.asarray(f(x, live), dtype=float)
        contrib = np.sum(_safe_products(fv, w), axis=-1)
        if level == 2:
            value[:] = contrib
            continue
        # halving h: old nodes keep half their weight, new nodes enter at h_new
        prev = value[live]
        new = 0.5 * prev + contrib
        step = np.abs(new - prev)
        value[live] = new
        err[live] = step
        done = step <= abs_tol + rel_tol * np.abs(new)
        converged[live] = done
        live = live[~done]
        if live.size == 0:
            break
    with np.errstate(invalid="ignore"):
        err = np.where(np.isfinite(value), np.minimum(err, np.abs(value)), math.inf)
    return value, err, converged


def _one_row(
    f: Callable[[np.ndarray], np.ndarray],
    dmap: _DEMap,
    abs_tol: float,
    rel_tol: float,
) -> IntegralResult:
    value, err, converged = _doubly_exponential(
        lambda x, live: f(x), dmap, abs_tol, rel_tol, 1
    )
    return IntegralResult(float(value[0]), float(err[0]), bool(converged[0]))


def _tanh_sinh_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: float,
    b: float,
    n_rows: int,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tanh-sinh on (a, b) for a stack of rows; each row is bitwise its
    one-row ``tanh_sinh`` call."""
    return _doubly_exponential(f, _tanh_sinh_map(a, b), abs_tol, rel_tol, n_rows)


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> IntegralResult:
    """Tanh-sinh quadrature on (a, b); endpoints are never evaluated.

    Handles integrable endpoint singularities such as ``y^alpha``.  The
    nodes stop about ``4e-31 (b - a)`` from the ends, so the mass closer
    than that is lost: under 1e-12 of the integral for ``alpha >= -0.6``,
    but 9e-4 at ``alpha = -0.9``.
    """
    if not (b > a):
        return IntegralResult(0.0, 0.0, True)
    return _one_row(f, _tanh_sinh_map(a, b), abs_tol, rel_tol)


def sinh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> IntegralResult:
    """Whole-line integral by the sinh-sinh double-exponential rule."""
    return _one_row(f, _SINH_SINH, abs_tol, rel_tol)


def exp_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> IntegralResult:
    """Integral over (0, inf) by the exp-sinh rule; absorbs integrable
    power singularities at 0."""
    return _one_row(f, _EXP_SINH, abs_tol, rel_tol)


# The product rule's coarse level, and the share of the coarse sum a coarse
# node must carry for its row or column to be refined past that level.
_COARSE_LEVEL = 3
_TRIM_SHARE = 1e-20
_TRIM_PAD = 1


def _coarse_window(significant: np.ndarray) -> tuple[float, float]:
    """The ``t``-window of the significant nodes of one axis of the coarse
    grid ``t = j 2^-3``, ``|j| <= n``, padded by ``_TRIM_PAD`` nodes; a side
    that reaches the outermost coarse node stays open up to ``t_cut``."""
    n = significant.size // 2
    idx = np.flatnonzero(significant)
    lo, hi = int(idx[0]) - _TRIM_PAD, int(idx[-1]) + _TRIM_PAD
    h = 2.0 ** -_COARSE_LEVEL
    return (-math.inf if lo <= 0 else (lo - n) * h,
            math.inf if hi >= 2 * n else (hi - n) * h)


def _product_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: float,
    x_map: _DEMap,
    y_map: _DEMap,
    spec: QuadratureSpec,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_level: int = 8,
) -> IntegralResult:
    """Tensor-product double-exponential rule for ``f(x, y) * y^alpha``,
    times ``weight(y)`` when given, with nested levels.

    The coarse level (step ``2^-3``) is the full tensor grid.  Each axis then
    keeps the window of ``t`` whose coarse nodes carry more than
    ``_TRIM_SHARE`` of the coarse sum, padded by ``_TRIM_PAD`` coarse nodes
    and open up to ``t_cut`` on a side that reaches the outermost coarse
    node (the tail truncation of Takahasi-Mori and Bailey-Jeyabalan-Li).
    Each finer level evaluates only the new (odd) nodes inside the windows,
    ``value = previous / 4 + new``, until two consecutive levels agree.  A
    coarse sum of 0 or not finite keeps the full grid, so the divergence
    probes see every node.  ``f(X, Y)`` is evaluated on outer-product
    blocks, two per level."""
    if alpha <= -1:
        raise QuadratureDomainError(f"weight exponent must exceed -1, got {alpha}")

    def block(x, wx, y, wy) -> np.ndarray:
        y = y[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            w = y ** alpha if alpha != 0.0 else 1.0
            if weight is not None:
                w = w * weight(y)
            vals = _safe_products(np.asarray(f(x[None, :], y), dtype=float), w)
            weights = wy[:, None] * wx[None, :]
        return _safe_products(vals, weights)

    x, wx = x_map.level(_COARSE_LEVEL)
    y, wy = y_map.level(_COARSE_LEVEL)
    coarse = block(x, wx, y, wy)
    value = float(np.sum(coarse))
    x_window = y_window = (-math.inf, math.inf)
    if value != 0.0 and math.isfinite(value):
        big = np.abs(coarse) > _TRIM_SHARE * abs(value)
        x_window = _coarse_window(np.any(big, axis=0))
        y_window = _coarse_window(np.any(big, axis=1))
        x, wx = x_map.level(_COARSE_LEVEL, False, *x_window)
        y, wy = y_map.level(_COARSE_LEVEL, False, *y_window)
    err = math.inf
    for level in range(_COARSE_LEVEL + 1, max_level + 1):
        # halving h: old nodes keep a quarter of their weight, new nodes are
        # the odd ones on either axis, summed in one pairwise pass
        xn, wxn = x_map.level(level, True, *x_window)
        yn, wyn = y_map.level(level, True, *y_window)
        wx = 0.5 * wx
        y, wy = np.concatenate([y, yn]), np.concatenate([0.5 * wy, wyn])
        new = float(np.sum(np.concatenate([
            block(x, wx, yn, wyn).ravel(), block(xn, wxn, y, wy).ravel()
        ])))
        prev, value = value, 0.25 * value + new
        err = abs(value - prev)
        if err <= spec.abs_tol + spec.rel_tol * abs(value):
            return IntegralResult(value, err, True)
        x, wx = np.concatenate([x, xn]), np.concatenate([wx, wxn])
    return IntegralResult(value, err, False)


# ---------------------------------------------------------------------------
# Line and half-plane integrals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LineRowsResult:
    """Per-row results of ``integrate_line_rows``."""

    values: np.ndarray
    errors: np.ndarray
    converged: np.ndarray


def integrate_line_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_SPEC,
    x_center: float = 0.0,
    scales=1.0,
) -> LineRowsResult:
    """Integrals over the real line of a stack of integrands, one row per
    entry of ``scales``, by the sinh-sinh rule.

    The rule covers the whole line, so power-decaying integrands carry no
    truncation error.  ``f(X, rows)`` gets the ``(rows.size, n)`` abscissae
    ``x_center + scales[rows, None] * x`` of the rows still running and
    their indices, and returns their values; each row has its own
    convergence test, so ``x_center``/``scales`` recenter a row's nodes on
    its integrand's natural scale.
    """
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    values, errors, converged = _doubly_exponential(
        lambda x, rows: f(x_center + scales[rows, None] * x, rows),
        _SINH_SINH, spec.abs_tol, spec.rel_tol, scales.size,
    )
    return LineRowsResult(values * scales, errors * scales, converged)


def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_SPEC,
    x_center: float = 0.0,
    scale: float = 1.0,
) -> IntegralResult:
    """Integral of ``f`` over the real line: the one-row case of
    ``integrate_line_rows``."""
    rows = integrate_line_rows(lambda X, r: f(X[0]), spec, x_center, scale)
    return IntegralResult(float(rows.values[0]), float(rows.errors[0]), bool(rows.converged[0]))


def integrate_halfplane(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    y_lo: float = 0.0,
    y_hi: float = math.inf,
    weight: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    x_center: float = 0.0,
    scale: float = 1.0,
) -> IntegralResult:
    """Product-rule integral of ``f(x, y) * y^alpha`` over the strip
    ``R x (y_lo, y_hi)`` (the whole half-plane by default).

    ``f(X, Y)`` is evaluated on outer-product grids of double-exponential
    nodes: sinh-sinh across x, exp-sinh (infinite top) or tanh-sinh
    (finite) in y.  ``x_center`` and ``scale`` recenter the rules on the
    integrand's natural scale (kernels concentrated around a base point
    far from scale one would otherwise fall between nodes).  An extra
    height ``weight`` multiplies ``y^alpha`` when given (used for density
    measures).  Exponents within ~0.02 of -1 are beyond the fixed node
    range and lose accuracy.
    """
    if scale <= 0:
        raise ValueError("scale hint must be positive")
    if math.isinf(y_hi):
        y_map = _EXP_SINH.affine(y_lo, scale)
    else:
        y_map = _tanh_sinh_map(y_lo, y_hi)
    return _product_rule(f, alpha, _SINH_SINH.affine(x_center, scale), y_map, spec, weight)


def integrate_box(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    alpha: float,
    x_lo: float,
    x_hi: float,
    y_hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    y_lo: float = 0.0,
) -> IntegralResult:
    """Integral of ``f(x, y) * y^alpha`` over the rectangle
    ``[x_lo, x_hi] x (y_lo, y_hi)`` by the tanh-sinh product rule."""
    return _product_rule(f, alpha, _tanh_sinh_map(x_lo, x_hi), _tanh_sinh_map(y_lo, y_hi), spec)
