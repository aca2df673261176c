"""Maximal operators over step functions: Hardy-Littlewood and shifted
dyadic maximal functions on the line with the maximal dyadic intervals of
their level sets, the weighted dyadic and translated-box maximal functions
over Carleson boxes in the half-plane, the sampled nontangential maximal
function, the Poisson extension, and the seeded maximal suite that checks
the three dyadic inequalities.

Step functions are the universal test class here because every supremum
and level set is exactly computable for them: the average of a step
function over an interval is a ratio of piecewise-linear functions of the
endpoints, so the supremum over arbitrary intervals is attained with
endpoints in the breakpoint set plus the evaluation point itself.

The two shifted dyadic grids are ``2^j([0,1) + m + (-1)^j beta)`` for
``beta in {0, 1/3}``; together they dominate the full maximal function up
to the factor 6 exercised in the tests.  The level-set search on the line
is top-down and averages a whole scale per array call.  The sampled
nontangential maximal function is the oracle that the closed form
``spaces.CarlesonKernel.cone_sup`` is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "StepFunction1D",
    "StepFunction2D",
    "DyadicGrid",
    "hl_maximal",
    "dyadic_maximal",
    "dyadic_level_intervals",
    "weighted_dyadic_maximal_batch",
    "weighted_maximal_over_boxes",
    "translated_box_table",
    "nontangential_maximal",
    "PoissonExtension",
    "maximal_suite",
]


@dataclass(frozen=True, eq=False)
class StepFunction1D:
    """Cell constants on ``[edges[0], edges[-1])``, zero outside."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if edges.ndim != 1 or values.shape != (edges.size - 1,):
            raise ValueError("need n+1 edges for n cell values")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("edges must increase")
        if not np.all(np.isfinite(values)):
            raise ValueError("cell values must be finite")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "values", values)
        prefix = np.concatenate([[0.0], np.cumsum(np.abs(values) * np.diff(edges))])
        prefix.flags.writeable = False
        object.__setattr__(self, "_abs_prefix", prefix)

    @property
    def window(self) -> tuple[float, float]:
        return float(self.edges[0]), float(self.edges[-1])

    def abs_prefix(self) -> np.ndarray:
        """F with F[i] = integral of |f| over (-inf, edges[i]] (computed once,
        read-only)."""
        return self._abs_prefix

    def scaled(self, c: float) -> "StepFunction1D":
        return StepFunction1D(self.edges, c * self.values)


def _interp_prefix(f: StepFunction1D):
    prefix = f.abs_prefix()
    edges = f.edges

    def F(t: np.ndarray) -> np.ndarray:
        return np.interp(t, edges, prefix)

    return F


def hl_maximal(f: StepFunction1D, x: float) -> float:
    """Exact Hardy-Littlewood maximal value ``sup_I avg_I |f|`` over all
    intervals containing ``x``; candidate endpoints are the cell edges
    plus ``x`` itself, which is exhaustive for step functions."""
    F = _interp_prefix(f)
    edges = f.edges
    left = np.concatenate([edges[edges <= x], [x]])
    right = np.concatenate([[x], edges[edges >= x]])
    Fa = F(left)
    Fb = F(right)
    width = right[None, :] - left[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        avg = (Fb[None, :] - Fa[:, None]) / width
    avg = np.where(width > 0, avg, -np.inf)
    return float(max(np.max(avg), 0.0))


@dataclass(frozen=True)
class DyadicGrid:
    """Shifted dyadic system with shift pattern ``(-1)^j * beta``."""

    beta: float = 0.0
    j_min: int = -6
    j_max: int = 8

    def __post_init__(self) -> None:
        if self.beta not in (0.0, 1.0 / 3.0):
            raise ValueError("shift must be 0 or 1/3")
        if self.j_min > self.j_max:
            raise ValueError("need j_min <= j_max")

    def interval_containing(self, j: int, x) -> tuple[np.ndarray, np.ndarray]:
        scale = 2.0 ** j
        off = self.beta if j % 2 == 0 else -self.beta
        m = np.floor(np.asarray(x, dtype=float) / scale - off)
        a = scale * (m + off)
        return a, a + scale

    def intervals_at(self, j: int, x_lo: float, x_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """All grid intervals at scale j meeting [x_lo, x_hi]."""
        scale = 2.0 ** j
        off = self.beta if j % 2 == 0 else -self.beta
        m_lo = math.floor(x_lo / scale - off)
        m_hi = math.floor(x_hi / scale - off)
        m = np.arange(m_lo, m_hi + 1)
        a = scale * (m + off)
        return a, a + scale


def dyadic_maximal(f: StepFunction1D, grid: DyadicGrid, x) -> np.ndarray:
    """Dyadic maximal function over the grid's scale range, vectorized in x."""
    F = _interp_prefix(f)
    x = np.asarray(x, dtype=float)
    best = np.zeros_like(x)
    for j in range(grid.j_min, grid.j_max + 1):
        a, b = grid.interval_containing(j, x)
        avg = (F(b) - F(a)) / (b - a)
        best = np.maximum(best, avg)
    return best


def dyadic_level_intervals(
    f: StepFunction1D, grid: DyadicGrid, lam: float
) -> list[tuple[float, float]]:
    """Maximal grid intervals with average of |f| above ``lam``, sorted.

    Their union is exactly ``{dyadic maximal > lam}`` for the same scale
    range, so level-set measures of the dyadic maximal are cell-exact.  The
    search starts from the top-scale intervals meeting the window and
    averages each scale in one call; the next scale's intervals whose
    midpoints lie in an interval not taken are opened (the grid nests).
    """
    if lam <= 0:
        raise ValueError("level must be positive")
    F = _interp_prefix(f)
    taken: list[tuple[float, float]] = []
    a, b = grid.intervals_at(grid.j_max, *f.window)
    for j in range(grid.j_max, grid.j_min - 1, -1):
        hit = (F(b) - F(a)) / (b - a) > lam
        taken += zip(a[hit].tolist(), b[hit].tolist())
        a, b = a[~hit], b[~hit]
        if j == grid.j_min or a.size == 0:
            break
        a_next, b_next = grid.intervals_at(j - 1, float(a[0]), float(b[-1]))
        mid = 0.5 * (a_next + b_next)
        parent = np.searchsorted(a, mid, side="right") - 1
        under = (parent >= 0) & (mid < b[parent])
        a, b = a_next[under], b_next[under]
    return sorted(taken)


# ---------------------------------------------------------------------------
# Weighted half-plane operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StepFunction2D:
    """Cell constants on ``[x0, x1) x (0, y1)``; zero outside."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    values: np.ndarray  # shape (nx, ny)

    def __post_init__(self) -> None:
        xe = np.asarray(self.x_edges, dtype=float)
        ye = np.asarray(self.y_edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (xe.size - 1, ye.size - 1):
            raise ValueError("value grid must match edge counts")
        if np.any(np.diff(xe) <= 0) or np.any(np.diff(ye) <= 0):
            raise ValueError("edges must increase")
        if ye[0] < 0:
            raise ValueError("height edges must start at or above 0")
        object.__setattr__(self, "x_edges", xe)
        object.__setattr__(self, "y_edges", ye)
        object.__setattr__(self, "values", v)


def _y_overlap_weighted(ye: np.ndarray, y0: float, y1: float, alpha: float) -> np.ndarray:
    lo = np.maximum(ye[:-1], y0)
    hi = np.minimum(ye[1:], y1)
    hi = np.maximum(hi, lo)
    return (hi ** (1.0 + alpha) - lo ** (1.0 + alpha)) / (1.0 + alpha)


def _box_averages(f: StepFunction2D, alpha: float, length: float, a, b):
    """Averages of |f| over the boxes ``[a, b) x (0, length)`` against the
    ``y^alpha`` volume, summed over cell overlaps (exact on one cell);
    ``a`` and ``b`` are arrays with a trailing axis of one."""
    xe = f.x_edges
    wx = np.clip(np.minimum(xe[1:], b) - np.maximum(xe[:-1], a), 0.0, None)
    wy = _y_overlap_weighted(f.y_edges, 0.0, length, alpha)
    return (wx @ np.abs(f.values) @ wy) / (length ** (2.0 + alpha) / (1.0 + alpha))


_TRANSLATION_STEP = 0.25  # box translation step, as a fraction of the box length


def translated_box_table(
    f: StepFunction2D,
    alpha: float,
    j_min: int,
    j_max: int,
    extent: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Averages of |f| over a translated family of boxes standing in for
    all intervals, the starts in steps of ``_TRANSLATION_STEP = 0.25``
    lengths; returns (a, length, average) arrays."""
    a_list, len_list, avg_list = [], [], []
    for j in range(j_min, j_max + 1):
        length = 2.0 ** j
        step = length * _TRANSLATION_STEP
        n = int(math.floor(2.0 * extent / step))
        starts = -extent + step * np.arange(n + 1)
        a_list.append(starts)
        len_list.append(np.full_like(starts, length))
        a = starts[:, None]
        avg_list.append(_box_averages(f, alpha, length, a, a + length))
    return np.concatenate(a_list), np.concatenate(len_list), np.concatenate(avg_list)


def weighted_dyadic_maximal_batch(
    f: StepFunction2D,
    alpha: float,
    xs: np.ndarray,
    ys: np.ndarray,
    j_min: int = -6,
    j_max: int = 8,
) -> np.ndarray:
    """Weighted dyadic maximal function at many probe points at once."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    best = np.zeros_like(xs)
    for j in range(j_min, j_max + 1):
        length = 2.0 ** j
        a = length * np.floor(xs / length)[..., None]
        averages = _box_averages(f, alpha, length, a, a + length)
        best = np.maximum(best, np.where(ys < length, averages, 0.0))
    return best


def weighted_maximal_over_boxes(
    table: tuple[np.ndarray, np.ndarray, np.ndarray],
    z: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Maximal function over a precomputed box table, vectorized over probes."""
    a, length, avg = table
    x, y = np.asarray(z[0], float), np.asarray(z[1], float)
    contains = (
        (x[:, None] >= a[None, :])
        & (x[:, None] < (a + length)[None, :])
        & (y[:, None] < length[None, :])
    )
    vals = np.where(contains, avg[None, :], 0.0)
    return vals.max(axis=1)


# ---------------------------------------------------------------------------
# Nontangential maximal function and Poisson extension
# ---------------------------------------------------------------------------

def nontangential_maximal(
    f_abs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x,
    y_range: tuple[float, float] = (1e-3, 1e3),
    per_decade: int = 64,
    n_aperture: int = 33,
) -> np.ndarray:
    """Supremum of |f| over the truncated cone ``|t - x| < y`` sampled
    geometrically in y and uniformly across the aperture; a lower bound of
    the true supremum for any ``|f|``, and the oracle that the closed form
    ``spaces.CarlesonKernel.cone_sup`` is tested against.

    Evaluated one height at a time over every probe, with a running
    maximum (the maximum is exact, so the order changes no value).  Each
    call holds probes x aperture samples (540 KB for 2048 probes), small
    enough that the allocator reuses the memory from call to call instead
    of unmapping it and faulting it back in, which keeps the time steady.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y_lo, y_hi = y_range
    n_y = max(2, int(round(per_decade * math.log10(y_hi / y_lo))) + 1)
    ys = np.geomspace(y_lo, y_hi, n_y)
    u = np.linspace(-1.0, 1.0, n_aperture) * (1.0 - 1e-9)
    star = np.full(x.shape, -np.inf)
    # sample t = x + y*u over (probe, aperture), one height y per call
    for y, offsets in zip(ys, ys[:, None] * u[None, :]):
        t = x[:, None] + offsets[None, :]
        vals = np.asarray(f_abs(t, np.broadcast_to(y, t.shape)))
        np.maximum(star, vals.max(axis=1), out=star)
    return star


@dataclass(frozen=True, eq=False)
class PoissonExtension:
    """Harmonic extension of a step function by the Poisson kernel
    ``(1/pi) * y / (t^2 + y^2)``, evaluated in closed form per cell."""

    g: StepFunction1D

    def __call__(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(x, y).shape, dtype=float)
        edges = self.g.edges
        for i, v in enumerate(self.g.values):
            if v == 0.0:
                continue
            out = out + (v / math.pi) * (
                np.arctan((x - edges[i]) / y) - np.arctan((x - edges[i + 1]) / y)
            )
        return out


# ---------------------------------------------------------------------------
# The maximal suite
# ---------------------------------------------------------------------------

def _finest_cells(grid: DyadicGrid, window: tuple[float, float]) -> np.ndarray:
    """Centres of the grid's finest cells under the top-scale intervals
    meeting ``window`` (and at most one past them, where the maximal
    vanishes): ``|{M_d f > lam}|`` is the cell width times a count."""
    a, b = grid.intervals_at(grid.j_max, *window)
    starts, stops = grid.intervals_at(grid.j_min, float(a[0]), float(b[-1]))
    return 0.5 * (starts + stops)


def maximal_suite(
    seed: int,
    n_functions: int,
    n_probes: int,
    n_levels: int,
    alphas: Sequence[float],
) -> tuple[int, int, int]:
    """Violation counts of the one-third trick (factor 6), the dyadic weak
    type (constant 2) and the weighted dyadic comparison (factor 68) on
    ``n_functions`` seeded step functions on the line and
    ``max(1, n_functions // 4)`` on the half-plane."""
    # corpus builds its step functions from this module
    from .corpus import random_step_1d, random_step_2d

    rng = np.random.default_rng(seed)
    grids = (DyadicGrid(0.0, -4, 6), DyadicGrid(1.0 / 3.0, -4, 6))

    onethird_bad = weak_bad = compare_bad = 0
    for _ in range(n_functions):
        f = random_step_1d(rng)
        probes = rng.uniform(*f.window, n_probes)
        m_full = np.array([hl_maximal(f, float(x)) for x in probes])
        m_dyadic = dyadic_maximal(f, grids[0], probes) + dyadic_maximal(f, grids[1], probes)
        onethird_bad += int(np.sum(m_full > 6.0 * m_dyadic + 1e-12))

        top = float(np.max(np.abs(f.values)))
        if top > 0:
            fa = np.abs(f.values)
            widths = np.diff(f.edges)
            cells = [
                (2.0 ** grid.j_min, dyadic_maximal(f, grid, _finest_cells(grid, f.window)))
                for grid in grids
            ]
            for lam in np.geomspace(top / 100.0, top * 0.999, n_levels):
                bound = (2.0 / lam) * float(np.sum(fa[fa > lam / 2] * widths[fa > lam / 2]))
                for width, m_cells in cells:
                    if width * np.count_nonzero(m_cells > lam) > bound + 1e-12:
                        weak_bad += 1

    for _ in range(max(1, n_functions // 4)):
        f2 = random_step_2d(rng)
        xs = rng.uniform(f2.x_edges[0], f2.x_edges[-1], n_probes)
        ys = rng.uniform(f2.y_edges[0] + 1e-6, f2.y_edges[-1] * 0.999, n_probes)
        for alpha in alphas:
            table = translated_box_table(f2, alpha, -3, 4, extent=6.0)
            full = weighted_maximal_over_boxes(table, (xs, ys))
            dyad = weighted_dyadic_maximal_batch(f2, alpha, xs, ys, -3, 4)
            compare_bad += int(np.sum((full > 1e-12) & (dyad < full / 68.0 - 1e-12)))
    return onethird_bad, weak_bad, compare_bad
