"""Quadrature on the line and the weighted upper half-plane, plus the
closed-form beta-function values used to cross-check it.

Two closed forms recur throughout the package and double as oracles for the
adaptive quadrature:

* ``int_R dx / |x + iy|^a = B(1/2, (a-1)/2) * y^(1-a)`` for ``a > 1``,
* ``int_0^inf y^a / (t + y)^b dy = B(a+1, b-a-1) * t^(a-b+1)`` for
  ``a > -1`` and ``b - a > 1``.

Quadrature engines: a batched adaptive Simpson rule for smooth finite
windows, a tanh-sinh rule for endpoint singularities on finite intervals,
and sinh-sinh / exp-sinh rules for the whole line and the half line.  The
double-exponential rules reach the tolerance without a truncation radius
for power-decaying integrands, so nothing here depends on a cutoff except
the explicit divergence probes driven by their callers.

The sinh-sinh / exp-sinh level driver integrates a stack of rows at once:
each row has its own running estimate and its own convergence test, and a
row that has converged is frozen and no longer evaluated.  A single
integral is the one-row case; ``integrate_line_rows`` exposes the stack for
families of line integrals (one row per height in ``spaces.hardy_norm``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "beta",
    "line_kernel_value",
    "halfplane_kernel_value",
    "adaptive_simpson",
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
    """Tolerances and cutoffs for the quadrature engines.

    ``halfwidth``/``y_max`` of ``inf`` select the compactified (untruncated)
    path; finite values integrate the stated window only, and the result
    carries a truncation note.  ``y_min`` is the lower height cutoff used
    when a half-plane integral is probed for divergence at the real axis.
    """

    scheme: str = "adaptive_simpson"
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    max_depth: int = 24
    halfwidth: float = math.inf
    y_min: float = 1e-6
    y_max: float = math.inf

    def __post_init__(self) -> None:
        if self.scheme not in ("adaptive_simpson", "tanh_sinh"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.y_min <= 0:
            raise ValueError("y_min must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    converged: bool
    note: str = ""

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

def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
    max_depth: int = 24,
) -> IntegralResult:
    """Batched adaptive Simpson on [a, b] for a vectorized integrand.

    All panels at a given depth are refined in one array pass, so ``f`` is
    called O(max_depth) times on whole arrays.  The returned error is the
    summed Richardson estimate of the accepted panels.
    """
    if not (b > a):
        return IntegralResult(0.0, 0.0, True)
    total_width = b - a
    n0 = 8
    edges = np.linspace(a, b, n0 + 1)
    left = edges[:-1]
    right = edges[1:]
    mid = 0.5 * (left + right)
    fl = np.asarray(f(left), dtype=float)
    fm = np.asarray(f(mid), dtype=float)
    fr = np.asarray(f(right), dtype=float)
    coarse = (right - left) / 6.0 * (fl + 4.0 * fm + fr)

    value = 0.0
    err_acc = 0.0
    converged = True
    for depth in range(max_depth):
        lm = 0.5 * (left + mid)
        rm = 0.5 * (mid + right)
        flm = np.asarray(f(lm), dtype=float)
        frm = np.asarray(f(rm), dtype=float)
        h = right - left
        s_left = h / 12.0 * (fl + 4.0 * flm + fm)
        s_right = h / 12.0 * (fm + 4.0 * frm + fr)
        fine = s_left + s_right
        err = (fine - coarse) / 15.0
        tol_panel = abs_tol * (h / total_width) + rel_tol * np.abs(fine)
        done = np.abs(err) <= tol_panel
        if depth == max_depth - 1:
            done = np.ones_like(done, dtype=bool)
            if np.any(np.abs(err) > tol_panel):
                converged = False
        value += float(np.sum(fine[done] + err[done]))
        err_acc += float(np.sum(np.abs(err[done])))
        keep = ~done
        if not np.any(keep):
            break
        # split surviving panels in two
        left = np.concatenate([left[keep], mid[keep]])
        right = np.concatenate([mid[keep], right[keep]])
        fl = np.concatenate([fl[keep], fm[keep]])
        fr = np.concatenate([fm[keep], fr[keep]])
        mid = np.concatenate([lm[keep], rm[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        coarse = np.concatenate([s_left[keep], s_right[keep]])
    return IntegralResult(value, err_acc, converged)


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
    max_level: int = 12,
) -> IntegralResult:
    """Tanh-sinh quadrature on (a, b); endpoints are never evaluated.

    Handles integrable endpoint singularities (e.g. ``y^alpha`` with
    ``alpha`` in (-1, 0)) at full accuracy.  Abscissae are built from the
    offset to the nearer endpoint so kernels with poles just outside the
    interval stay well conditioned.
    """
    if not (b > a):
        return IntegralResult(0.0, 0.0, True)
    half = 0.5 * (b - a)
    t_cut = 3.8  # weights underflow beyond this for double precision
    prev = None
    value = 0.0
    converged = False
    err = math.inf
    for level in range(2, max_level + 1):
        h = 2.0 ** (-level)
        j = np.arange(-int(t_cut / h), int(t_cut / h) + 1)
        if prev is not None:
            j = j[j % 2 != 0]  # only new nodes after halving h
        t = j * h
        u = 0.5 * math.pi * np.sinh(t)
        w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        # distance to the nearer endpoint: 1 - |tanh u| = 2 / (e^{2|u|} + 1)
        offset = half * 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
        x = np.where(t >= 0, b - offset, a + offset)
        contrib = float(np.sum(np.asarray(f(x), dtype=float) * w * half))
        if prev is None:
            prev = contrib
            value = contrib
            continue
        # halving h: old nodes keep half their weight, new nodes enter at h_new
        value = 0.5 * prev + contrib
        err = abs(value - prev)
        if err <= abs_tol + rel_tol * abs(value):
            converged = True
            prev = value
            break
        prev = value
    return IntegralResult(value, min(err, abs(value)), converged)


def _safe_products(fv: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Treat a vanishing factor times an overflowing one as zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = fv * w
    prod = np.where((fv == 0.0) | (w == 0.0), 0.0, prod)
    return prod


def _doubly_exponential(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    nodes_weights: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    abs_tol: float,
    rel_tol: float,
    n_rows: int,
    max_level: int = 11,
    t_cut: float = 6.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared level driver of the sinh-sinh and exp-sinh rules over a stack
    of ``n_rows`` integrands.

    ``nodes_weights(t)`` maps trapezoid abscissae to (x, dx/dt); the level
    loop halves the step, reusing previous nodes, until two consecutive
    estimates of a row agree.  ``f(x, live)`` gets the level's new
    abscissae and the indices of the rows still running, and returns their
    values, one row each (a 1-D result serves every live row).  A row that
    has converged is frozen.  ``t_cut = 6`` keeps ``exp(pi*sinh(t))`` just
    inside double range, which is where decaying integrands have long
    vanished.  Returns per-row values, error estimates and convergence flags.
    """
    value = np.zeros(n_rows)
    err = np.full(n_rows, math.inf)
    converged = np.zeros(n_rows, dtype=bool)
    live = np.arange(n_rows)
    for level in range(2, max_level + 1):
        h = 2.0 ** (-level)
        j = np.arange(-int(t_cut / h), int(t_cut / h) + 1)
        if level > 2:
            j = j[j % 2 != 0]
        t = j * h
        x, dxdt = nodes_weights(t)
        with np.errstate(over="ignore", invalid="ignore"):
            fv = np.asarray(f(x, live), dtype=float)
        contrib = np.sum(_safe_products(fv, dxdt * h), axis=-1)
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
    nodes_weights: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    abs_tol: float,
    rel_tol: float,
) -> IntegralResult:
    value, err, converged = _doubly_exponential(
        lambda x, live: f(x), nodes_weights, abs_tol, rel_tol, 1
    )
    return IntegralResult(float(value[0]), float(err[0]), bool(converged[0]))


def _sinh_sinh_nodes(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ps = math.pi * np.sinh(t)
    return 0.5 * np.sinh(ps), 0.5 * math.pi * np.cosh(t) * np.cosh(ps)


def sinh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
) -> IntegralResult:
    """Whole-line integral by the sinh-sinh double-exponential rule."""
    return _one_row(f, _sinh_sinh_nodes, abs_tol, rel_tol)


def exp_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    abs_tol: float = 1e-10,
    rel_tol: float = 1e-9,
    shift: float = 0.0,
) -> IntegralResult:
    """Integral over (shift, inf) by the exp-sinh rule; absorbs integrable
    power singularities at the lower endpoint."""
    def nw(t: np.ndarray):
        ps = math.pi * np.sinh(t)
        y = np.exp(ps)
        return shift + y, math.pi * np.cosh(t) * y

    return _one_row(f, nw, abs_tol, rel_tol)


def _engine(spec: QuadratureSpec):
    if spec.scheme == "tanh_sinh":
        return lambda f, a, b: tanh_sinh(f, a, b, spec.abs_tol, spec.rel_tol)
    return lambda f, a, b: adaptive_simpson(
        f, a, b, spec.abs_tol, spec.rel_tol, spec.max_depth
    )


# -- node/weight generators shared by the product rules ---------------------

def _ts_nodes(level: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    h = 2.0 ** (-level)
    t = np.arange(-int(3.8 / h), int(3.8 / h) + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    half = 0.5 * (b - a)
    offset = half * 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
    x = np.where(t >= 0, b - offset, a + offset)
    w = h * half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return x, w


def _ss_nodes(level: int) -> tuple[np.ndarray, np.ndarray]:
    h = 2.0 ** (-level)
    t = np.arange(-int(6.0 / h), int(6.0 / h) + 1) * h
    ps = math.pi * np.sinh(t)
    return 0.5 * np.sinh(ps), h * 0.5 * math.pi * np.cosh(t) * np.cosh(ps)


def _es_nodes(level: int, shift: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    h = 2.0 ** (-level)
    t = np.arange(-int(6.0 / h), int(6.0 / h) + 1) * h
    y = np.exp(math.pi * np.sinh(t))
    return shift + y, h * math.pi * np.cosh(t) * y


def _product_rule(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x_nodes: Callable[[int], tuple[np.ndarray, np.ndarray]],
    y_nodes: Callable[[int], tuple[np.ndarray, np.ndarray]],
    abs_tol: float,
    rel_tol: float,
    max_level: int = 8,
) -> IntegralResult:
    """Tensor-product double-exponential rule, recomputed per level until
    two consecutive levels agree; ``f(X, Y)`` is evaluated on full outer
    grids so the cost is a handful of large vectorized calls."""
    prev = None
    err = math.inf
    for level in range(3, max_level + 1):
        x, wx = x_nodes(level)
        y, wy = y_nodes(level)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(x[None, :], y[:, None]), dtype=float)
            weights = wy[:, None] * wx[None, :]
        contrib = _safe_products(vals, weights)
        value = float(np.sum(contrib))
        if prev is not None:
            err = abs(value - prev)
            if err <= abs_tol + rel_tol * abs(value):
                return IntegralResult(value, err, True)
        prev = value
    return IntegralResult(prev if prev is not None else 0.0, err, False)


# ---------------------------------------------------------------------------
# Line and half-plane integrals
# ---------------------------------------------------------------------------

def integrate_line(
    f: Callable[[np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_SPEC,
    x_center: float = 0.0,
    scale: float = 1.0,
) -> IntegralResult:
    """Integral of ``f`` over the real line.

    With ``spec.halfwidth = inf`` (the default) the sinh-sinh rule covers
    the whole line, so power-decaying integrands carry no truncation
    error; ``x_center``/``scale`` recenter its nodes on the integrand's
    natural scale.  A finite halfwidth integrates ``[-R, R]`` with the
    selected scheme and notes the truncation.
    """
    if math.isinf(spec.halfwidth):
        if x_center != 0.0 or scale != 1.0:
            res = sinh_sinh(
                lambda t: f(x_center + scale * t), spec.abs_tol, spec.rel_tol
            )
            res = IntegralResult(res.value * scale, res.error * scale, res.converged)
        else:
            res = sinh_sinh(f, spec.abs_tol, spec.rel_tol)
        return IntegralResult(res.value, res.error, res.converged, "untruncated")
    res = _engine(spec)(f, -spec.halfwidth, spec.halfwidth)
    return IntegralResult(
        res.value, res.error, res.converged, f"truncated to |x| <= {spec.halfwidth:g}"
    )


@dataclass(frozen=True)
class LineRowsResult:
    """Per-row results of ``integrate_line_rows``."""

    values: np.ndarray
    errors: np.ndarray
    converged: np.ndarray
    note: str = ""


def integrate_line_rows(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    spec: QuadratureSpec = DEFAULT_SPEC,
    x_center: float = 0.0,
    scales=1.0,
) -> LineRowsResult:
    """Integrals over the real line of a stack of integrands, one row per
    entry of ``scales``.

    ``f(X, rows)`` gets the ``(rows.size, n)`` abscissae
    ``x_center + scales[rows, None] * x`` of the rows still running and
    their indices, and returns their values.  Each row is the sinh-sinh
    rule of ``integrate_line(f_row, spec, x_center, scales[row])`` with its
    own convergence test, and bitwise equal to it.  A finite
    ``spec.halfwidth`` integrates ``[-R, R]`` row by row with the selected
    scheme, where ``X`` is that window's own ``(1, n)`` abscissae, as in
    ``integrate_line``.
    """
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    if math.isinf(spec.halfwidth):
        values, errors, converged = _doubly_exponential(
            lambda x, rows: f(x_center + scales[rows, None] * x, rows),
            _sinh_sinh_nodes, spec.abs_tol, spec.rel_tol, scales.size,
        )
        return LineRowsResult(values * scales, errors * scales, converged, "untruncated")
    engine = _engine(spec)
    results = [
        engine(lambda x, row=np.array([r]): f(np.asarray(x)[None, :], row)[0],
               -spec.halfwidth, spec.halfwidth)
        for r in range(scales.size)
    ]
    return LineRowsResult(
        np.array([res.value for res in results]),
        np.array([res.error for res in results]),
        np.array([res.converged for res in results], dtype=bool),
        f"truncated to |x| <= {spec.halfwidth:g}",
    )


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
    if alpha <= -1:
        raise QuadratureDomainError(f"weight exponent must exceed -1, got {alpha}")
    if scale <= 0:
        raise ValueError("scale hint must be positive")

    def g(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        w = y ** alpha if alpha != 0.0 else 1.0
        if weight is not None:
            w = w * weight(y)
        return _safe_products(np.asarray(f(x, y), dtype=float), w)

    if math.isinf(spec.halfwidth):
        def x_nodes(lvl: int):
            x, w = _ss_nodes(lvl)
            return x_center + scale * x, scale * w
    else:
        x_nodes = lambda lvl: _ts_nodes(lvl, -spec.halfwidth, spec.halfwidth)
    top = min(y_hi, spec.y_max)
    if math.isinf(top):
        def y_nodes(lvl: int):
            y, w = _es_nodes(lvl)
            return y_lo + scale * y, scale * w
    else:
        y_nodes = lambda lvl: _ts_nodes(lvl, y_lo, top)
    res = _product_rule(g, x_nodes, y_nodes, spec.abs_tol, spec.rel_tol)
    note = "untruncated" if (y_lo == 0.0 and math.isinf(top)) else (
        f"height range ({y_lo:g}, {top:g})"
    )
    return IntegralResult(res.value, res.error, res.converged, note)


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
    if alpha <= -1:
        raise QuadratureDomainError(f"weight exponent must exceed -1, got {alpha}")

    def g(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        w = y ** alpha if alpha != 0.0 else 1.0
        return _safe_products(np.asarray(f(x, y), dtype=float), w)

    return _product_rule(
        g,
        lambda lvl: _ts_nodes(lvl, x_lo, x_hi),
        lambda lvl: _ts_nodes(lvl, y_lo, y_hi),
        spec.abs_tol,
        spec.rel_tol,
    )
