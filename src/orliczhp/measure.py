"""Positive measures on the upper half-plane in computable forms, Carleson
boxes, the box-testing sweep, and the one sweep fold.

A Carleson box over an interval ``I = [a, b)`` is the half-open square
``Q_I = {x in I, 0 < y < |I|}``.  Measures come in four kinds:

* ``AtomicMeasure``     -- finitely many point masses strictly inside C_+,
* ``WeightedVolume``    -- ``y^alpha dx dy`` with alpha > -1,
* ``DensityMeasure``    -- ``rho(y) dx dy`` for a height-only density,
* ``RestrictedMeasure`` -- a base measure cut to a box region.

Each kind carries its own rules: ``box_mass``, ``integrate`` (the integral
of a function of ``(x, y)``), ``pixel_masses`` and ``atoms`` (the atoms of
positive mass, ``None`` for the height-only kinds).  The module functions
of the same names are kind-agnostic entry points.  The two unrestricted
height measures also give ``kernel_modular``, the modular of a rational
kernel under any ``phi`` once its x-integral is taken
(``GrowthFunction.kernel_lines``): a 1-D height integral, which on a
``WeightedVolume`` is a beta function too where ``phi`` is a power.  So
their ``integrate``, the 2-D product rule, serves only other integrands.
The kinds with atoms (an ``AtomicMeasure``, or a ``RestrictedMeasure`` of
one) give ``integrate_rows``: the atom sums of many integrands from one
``(rows, atoms)`` array, each bitwise its ``integrate``.

Box masses are exact sums for atoms, closed form ``|I|^(2+alpha)/(1+alpha)``
for weighted volume, and quadrature with a divergence probe for densities.
The probe halves the height cutoff twice and inspects the mass increments:
an increment that fails to decay geometrically (second increment at least
half the first, and non-negligible) marks the mass divergent, as does
outright growth above ten percent per halving.  The ratio rule is what
catches log-log divergences whose per-halving growth is arbitrarily small.
The same probe guards density integrals over the half-plane, on the 2-D
product rule (``integrate``) and on the 1-D height path (``kernel_modular``)
alike (``_tail_probed``).

The box and kernel testers each adapt their own ladder to the measure and
return one fold, ``_fold``, of their ``(scale | None, value, witness)``
rows; ``carleson_box_constant`` adapts its family by ``adapted_box_family``.
On an atomic measure the box sweep takes all lengths in one array: a box
mass changes only where a box edge crosses an atom, so the first centre and
those crossings give the rows, witnesses and tie rules of the full grid of
centres, at a cost that follows the atoms.  A box value is ``mass * weight``
with ``0 * inf = 0``, so an overflowing weight leaves empty boxes at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as np

from .growth import GrowthFunction, _growing_at_edge
from .integrals import (
    DEFAULT_SPEC,
    QuadratureSpec,
    _safe_products,
    exp_sinh,
    halfplane_kernel_value,
    integrate_box,
    integrate_halfplane,
    tanh_sinh,
)

__all__ = [
    "CarlesonBox",
    "AtomicMeasure",
    "WeightedVolume",
    "DensityMeasure",
    "RestrictedMeasure",
    "UpperHalfPlaneMeasure",
    "BoxFamily",
    "Verdict",
    "Sweep",
    "box_mass",
    "carleson_box_constant",
    "PixelGrid",
    "pixel_masses",
]


@dataclass(frozen=True)
class CarlesonBox:
    """Interval ``[a, b)`` on the line with its square above it."""

    center_x: float
    length: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("box length must be positive")

    @property
    def a(self) -> float:
        return self.center_x - 0.5 * self.length

    @property
    def b(self) -> float:
        return self.center_x + 0.5 * self.length

    def contains(self, x, y) -> np.ndarray:
        x = np.asarray(x)
        y = np.asarray(y)
        return (x >= self.a) & (x < self.b) & (y > 0) & (y < self.length)


def _probed(
    segment: Callable[[float, float], float],
    c: float,
    above: Callable[[float], float],
) -> float:
    """The divergence probe shared by every density integral: box masses,
    2-D integrals and the kernel modulars of the 1-D height path.

    ``above(lo)`` is the integral over heights above ``lo`` and
    ``segment(lo, hi)`` the one over a height band.  Returns ``above(0)``
    unless the increments ``segment(c/2, c)`` and ``segment(c/4, c/2)``
    fail to decay, in which case the integral is flagged ``inf``.  The
    thresholds are absolute (a floor of 1e-12), so they act on the whole
    integral its caller returns.
    """
    base = above(c)
    d1 = segment(c / 2, c)
    d2 = segment(c / 4, c / 2)
    floor = 1e-12
    spec_rule = d1 > 0.1 * max(base, floor) and d2 > 0.1 * max(base + d1, floor)
    ratio_rule = d2 >= 0.5 * d1 and d2 > 1e-3 * max(base, floor)
    if spec_rule or ratio_rule:
        return math.inf
    return above(0.0)


def _tail_probed(segment: Callable[[float, float], float], spec: QuadratureSpec) -> float:
    """A density's integral over the half-plane from its height segments
    ``segment(lo, hi)``: the ``(1, inf)`` tail once, and ``(0, 1)`` behind
    the divergence probe at ``spec.y_min``."""
    tail = segment(1.0, math.inf)
    return _probed(segment, spec.y_min, lambda lo: segment(lo, 1.0) + tail)


def _kernel_heights(phi: GrowthFunction, a: float, s: float, y0: float, weight: Callable,
                    lo: float, hi: float, spec: QuadratureSpec) -> float:
    """``int_lo^hi phi.kernel_lines(a, s, y0, y) weight(y) dy``, a kernel's
    modular over a height band, on the height maps of the 2-D rule:
    tanh-sinh on a band and exp-sinh in ``y = lo + y0 u`` above ``lo``.  A
    vanishing line modular times an infinite weight counts 0: the section-6
    profiles leave the double range at the far nodes."""
    def kernel(y: np.ndarray) -> np.ndarray:
        return _safe_products(phi.kernel_lines(a, s, y0, y, spec).values, weight(y))

    if math.isinf(hi):
        return exp_sinh(lambda u: y0 * kernel(lo + y0 * u), spec.abs_tol, spec.rel_tol).value
    return tanh_sinh(kernel, lo, hi, spec.abs_tol, spec.rel_tol).value


@dataclass(frozen=True)
class AtomicMeasure:
    """Point masses at ``(x_k, y_k)`` with ``y_k > 0`` and nonnegative mass."""

    xs: tuple
    ys: tuple
    masses: tuple

    region = None  # not cut to a box

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        ms = np.asarray(self.masses, dtype=float)
        if not (xs.shape == ys.shape == ms.shape) or xs.ndim != 1:
            raise ValueError("atom arrays must be matching 1-d sequences")
        if xs.size and np.any(ys <= 0):
            raise ValueError("atoms must lie strictly inside the upper half-plane")
        if xs.size and np.any(ms < 0):
            raise ValueError("masses must be nonnegative")
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "ys", tuple(ys))
        object.__setattr__(self, "masses", tuple(ms))
        live = ms > 0
        object.__setattr__(self, "_live", self if np.all(live) else AtomicMeasure(
            tuple(xs[live]), tuple(ys[live]), tuple(ms[live])
        ))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (np.asarray(self.xs), np.asarray(self.ys), np.asarray(self.masses))

    @staticmethod
    def empty() -> "AtomicMeasure":
        return AtomicMeasure((), (), ())

    def atoms(self) -> "AtomicMeasure":
        """The atoms of positive mass."""
        return self._live

    def box_mass(self, box: CarlesonBox, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        xs, ys, ms = self.arrays()
        if xs.size == 0:
            return 0.0
        return float(ms[box.contains(xs, ys)].sum())

    def integrate(self, g, spec: QuadratureSpec = DEFAULT_SPEC,
                  x_center: float = 0.0, scale: float = 1.0) -> float:
        """Exact atom sum of ``g``; the quadrature hints are unused."""
        xs, ys, ms = self.arrays()
        if xs.size == 0:
            return 0.0
        return float(np.sum(ms * g(xs, ys)))

    def integrate_rows(self, g, rows: int) -> np.ndarray:
        """The atom sums of ``rows`` integrands at once: ``g(xs, ys)`` is a
        ``(rows, atoms)`` array, and entry ``i`` is bitwise ``integrate`` of
        row ``i``: the same products over the same atoms, zero masses
        included, summed pairwise along the atom axis."""
        xs, ys, ms = self.arrays()
        if xs.size == 0:
            return np.zeros(rows)
        return np.sum(ms * g(xs, ys), axis=1)

    def pixel_masses(self, grid: PixelGrid) -> np.ndarray:
        xe, ye = grid.edges()
        xs, ys, ms = self.arrays()
        out, _, _ = np.histogram2d(xs, ys, bins=[xe, ye], weights=ms)
        return out


class _HeightMeasure:
    """Rules shared by the kinds with a height-only density: no atoms, no
    cutting region, and pixel masses constant along x.

    Subclasses give ``_pixel_column(ye)`` (the masses of the height cells
    over unit width), ``_slab_mass(width, h, spec)`` (the mass of
    ``[0, width) x (0, h)``) and ``_integrate_box(g, x_lo, x_hi, h, spec)``
    (the integral of ``g`` over ``[x_lo, x_hi] x (0, h)``, one
    ``integrate_box`` call); the last two serve :class:`RestrictedMeasure`.
    """

    region = None

    def atoms(self) -> None:
        return None

    def pixel_masses(self, grid: PixelGrid) -> np.ndarray:
        xe, ye = grid.edges()
        dx = xe[1] - xe[0]
        return np.tile(self._pixel_column(ye) * dx, (grid.nx, 1))


@dataclass(frozen=True)
class WeightedVolume(_HeightMeasure):
    """The measure ``y^alpha dx dy``, alpha > -1."""

    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.alpha <= -1:
            raise ValueError("weight exponent must exceed -1")

    def box_mass(self, box: CarlesonBox, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        """Closed form ``|I|^(2+alpha) / (1+alpha)``."""
        return box.length ** (2.0 + self.alpha) / (1.0 + self.alpha)

    def integrate(self, g, spec: QuadratureSpec = DEFAULT_SPEC,
                  x_center: float = 0.0, scale: float = 1.0) -> float:
        return integrate_halfplane(
            g, self.alpha, spec, x_center=x_center, scale=scale,
        ).value

    def kernel_modular(self, phi: GrowthFunction, a: float, s: float, y0: float,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        """A rational kernel's modular (``spaces.modular_halfplane``), one
        exp-sinh rule over its line modulars (``_kernel_heights``).  Where
        they are a power of the height (``phi.kernel_factor``) it is the
        second beta closed form of ``integrals``, ``factor y0^(2+alpha)
        B(alpha+1, 2m-2-alpha)``: ``inf`` where that or the x-integral
        diverges, even where ``factor`` underflows."""
        closed = phi.kernel_factor(a, s)
        if closed is None:
            return _kernel_heights(phi, a, s, y0, lambda y: y ** self.alpha, 0.0, math.inf, spec)
        m, factor = closed
        b = 2.0 * m - 1.0
        if math.isinf(factor) or b - self.alpha <= 1.0:
            return math.inf
        height = y0 ** (2.0 + self.alpha) * halfplane_kernel_value(self.alpha, b, 1.0)
        return math.inf if math.isinf(height) else factor * height

    def _pixel_column(self, ye: np.ndarray) -> np.ndarray:
        a = self.alpha
        return (ye[1:] ** (1.0 + a) - ye[:-1] ** (1.0 + a)) / (1.0 + a)

    def _slab_mass(self, width: float, h: float, spec: QuadratureSpec) -> float:
        a = self.alpha
        return width * h ** (1.0 + a) / (1.0 + a)

    def _integrate_box(self, g, x_lo: float, x_hi: float, h: float,
                       spec: QuadratureSpec) -> float:
        return integrate_box(g, self.alpha, x_lo, x_hi, h, spec).value


@dataclass(frozen=True)
class DensityMeasure(_HeightMeasure):
    """``rho(y) dx dy`` for a nonnegative height-only density.

    The density grammar of the config layer only produces height profiles;
    horizontal structure enters through :class:`RestrictedMeasure`.  Box
    masses and integrals run the divergence probe at y = 0.  An integral
    over the half-plane is the ``(1, inf)`` tail plus ``(0, 1)`` behind the
    probe: 2-D product rules in ``integrate``, and 1-D rules in
    ``kernel_modular``, which ``spaces.modular_halfplane`` takes for a
    kernel under any ``phi``.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    label: str = "density"

    def __post_init__(self) -> None:
        probe = self.profile(np.geomspace(1e-3, 1e2, 11))
        if np.any(np.asarray(probe) < 0):
            raise ValueError("density must be nonnegative on sample probes")

    def box_mass(self, box: CarlesonBox, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        return self._slab_mass(box.length, box.length, spec)

    def integrate(self, g, spec: QuadratureSpec = DEFAULT_SPEC,
                  x_center: float = 0.0, scale: float = 1.0) -> float:
        def segment(lo: float, hi: float) -> float:
            return integrate_halfplane(
                g, 0.0, spec, y_lo=lo, y_hi=hi, weight=self.profile,
                x_center=x_center, scale=scale,
            ).value

        return _tail_probed(segment, spec)

    def kernel_modular(self, phi: GrowthFunction, a: float, s: float, y0: float,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        """A rational kernel's modular (``spaces.modular_halfplane``): 1-D
        rules over its line modulars (``_kernel_heights``) on the segments
        and behind the probe of ``integrate``; ``inf`` where a closed
        x-integral diverges (``phi.kernel_factor``)."""
        closed = phi.kernel_factor(a, s)
        if closed is not None and math.isinf(closed[1]):
            return math.inf
        return _tail_probed(
            lambda lo, hi: _kernel_heights(phi, a, s, y0, self.profile, lo, hi, spec), spec)

    def _pixel_column(self, ye: np.ndarray) -> np.ndarray:
        """Midpoint rule per height cell."""
        yc = 0.5 * (ye[:-1] + ye[1:])
        return self.profile(yc) * (ye[1:] - ye[:-1])

    def _slab_mass(self, width: float, h: float, spec: QuadratureSpec) -> float:
        def segment(lo: float, hi: float) -> float:
            return tanh_sinh(self.profile, lo, hi, spec.abs_tol, spec.rel_tol).value

        return width * _probed(segment, min(spec.y_min, 0.25 * h),
                               lambda lo: segment(lo, h))

    def _integrate_box(self, g, x_lo: float, x_hi: float, h: float,
                       spec: QuadratureSpec) -> float:
        return integrate_box(g, 0.0, x_lo, x_hi, h, spec, weight=self.profile).value


@dataclass(frozen=True)
class RestrictedMeasure:
    """A primitive measure cut to the Carleson box ``region``.

    An atomic base is served entirely by its atoms inside the region;
    height-only bases supply their slab masses and box integrals.  The box
    rule is tanh-sinh on both sides, whose nodes crowd at the ends, so
    ``integrate`` splits the region at ``x_center`` (clipped into it) and
    sums the base's ``_integrate_box`` over the two parts: a kernel that
    peaks inside the region then peaks at the end of a part.
    """

    base: "UpperHalfPlaneMeasure"
    region: CarlesonBox

    def __post_init__(self) -> None:
        if isinstance(self.base, RestrictedMeasure):
            raise ValueError("the base of a restricted measure must not be restricted")
        inside = self.base.atoms()
        if inside is not None:
            xs, ys, ms = inside.arrays()
            keep = self.region.contains(xs, ys)
            inside = AtomicMeasure(tuple(xs[keep]), tuple(ys[keep]), tuple(ms[keep]))
        object.__setattr__(self, "_atoms", inside)

    def atoms(self) -> Optional[AtomicMeasure]:
        """The base's live atoms inside the region, or ``None``."""
        return self._atoms

    def box_mass(self, box: CarlesonBox, spec: QuadratureSpec = DEFAULT_SPEC) -> float:
        if self._atoms is not None:
            return self._atoms.box_mass(box, spec)
        reg = self.region
        lo = max(box.a, reg.a)
        hi = min(box.b, reg.b)
        h = min(box.length, reg.length)
        if hi <= lo or h <= 0:
            return 0.0
        return self.base._slab_mass(hi - lo, h, spec)

    def integrate(self, g, spec: QuadratureSpec = DEFAULT_SPEC,
                  x_center: float = 0.0, scale: float = 1.0) -> float:
        if self._atoms is not None:
            return self._atoms.integrate(g, spec, x_center, scale)
        reg = self.region
        xc = min(max(x_center, reg.a), reg.b)
        return sum(self.base._integrate_box(g, lo, hi, reg.length, spec)
                   for lo, hi in ((reg.a, xc), (xc, reg.b)) if hi > lo)

    def integrate_rows(self, g, rows: int) -> np.ndarray:
        """``AtomicMeasure.integrate_rows`` over the atoms inside the region;
        for an atomic base only."""
        return self._atoms.integrate_rows(g, rows)

    def pixel_masses(self, grid: PixelGrid) -> np.ndarray:
        if self._atoms is not None:
            return self._atoms.pixel_masses(grid)
        base = self.base.pixel_masses(grid)
        xe, ye = grid.edges()
        reg = self.region
        fx = np.clip(
            (np.minimum(xe[1:], reg.b) - np.maximum(xe[:-1], reg.a)) / (xe[1] - xe[0]),
            0.0, 1.0,
        )
        dy = ye[1:] - ye[:-1]
        fy = np.clip((np.minimum(ye[1:], reg.length) - ye[:-1]) / dy, 0.0, 1.0)
        return base * fx[:, None] * fy[None, :]


UpperHalfPlaneMeasure = Union[AtomicMeasure, WeightedVolume, DensityMeasure, RestrictedMeasure]


# ---------------------------------------------------------------------------
# Box masses
# ---------------------------------------------------------------------------

def box_mass(
    mu: UpperHalfPlaneMeasure,
    box: CarlesonBox,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Mass of the Carleson box; ``inf`` flags a divergent density mass."""
    return mu.box_mass(box, spec)


# ---------------------------------------------------------------------------
# Families and the box-testing sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxFamily:
    """Dyadic lengths ``2^j`` with translated copies covering ``[-X, X]``.

    Steps are a fixed fraction of the length (at most one half, so that
    neighbouring boxes overlap); boxes longer than the window contribute a
    single centred copy.  The sweep over this family is a lower bound for
    the supremum over all intervals.
    """

    j_min: int = -10
    j_max: int = 10
    extent: float = 16.0
    step_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.j_min > self.j_max:
            raise ValueError("need j_min <= j_max")
        if not 0 < self.extent < math.inf:
            raise ValueError("window half-width must be positive and finite")
        if not (0 < self.step_fraction <= 0.5):
            raise ValueError("translation step must be at most half a length")
        if math.ldexp(self.step_fraction, self.j_min) < np.finfo(float).tiny:
            raise ValueError("the smallest translation step must be a normal float")
        if self.j_max >= np.finfo(float).maxexp:
            raise ValueError("the largest length 2^j_max must be finite")

    def lengths(self) -> np.ndarray:
        return 2.0 ** np.arange(self.j_min, self.j_max + 1, dtype=float)

    def centers_at(self, length: float) -> np.ndarray:
        if length >= 2.0 * self.extent:
            return np.array([0.0])
        step = length * self.step_fraction
        k = int(math.floor(2.0 * self.extent / step))
        return -self.extent + step * np.arange(k + 1)


def adapted_box_family(mu: UpperHalfPlaneMeasure, base: BoxFamily = BoxFamily()) -> BoxFamily:
    """Extend a family so it sees past an atomic measure's height range.

    The growth-trend verdict needs scales below the lowest atom (where box
    values drop to zero) to distinguish a steep but finite peak from
    genuine unboundedness; measures with mass at every height are returned
    with the base family unchanged.
    """
    atoms = mu.atoms()
    if atoms is None or len(atoms.masses) == 0:
        return base
    xs, ys, _ = atoms.arrays()
    j_min = min(base.j_min, int(math.floor(math.log2(float(ys.min())))) - 1)
    extent = max(base.extent, float(np.abs(xs).max()) + float(ys.max()))
    j_max = max(base.j_max, int(math.ceil(math.log2(2.0 * extent))) + 1)
    return BoxFamily(j_min, j_max, extent, base.step_fraction)


_GROWING = ("growing_small_scale", "growing_large_scale")
_REASONS = ("divergent", "unbounded_member", *_GROWING)


@dataclass(frozen=True)
class Verdict:
    """A tester's call: finite when ``reason`` is None, otherwise infinite
    for one of ``_REASONS`` (explained in the ``carleson`` module docstring)."""

    reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.reason not in (None, *_REASONS):
            raise ValueError(f"unknown verdict reason {self.reason!r}")

    @property
    def finite(self) -> bool:
        return self.reason is None

    @property
    def trend(self) -> str:
        """The reports' trend key: the edge that grew, else ``bounded``."""
        return self.reason if self.reason in _GROWING else "bounded"


def _ladder_verdict(scales: np.ndarray, values: np.ndarray) -> Verdict:
    """Verdict of a sweep along an increasing scale ladder: infinite when
    the values grow toward an edge (the small-scale edge is read first).

    A zero value at the extreme scale already bounds that edge (e.g. all
    atoms sit above the smallest boxes), so growth is only meaningful when
    the values reach the edge of the ladder.
    """
    if values.size and values[0] > 0 and _growing_at_edge(scales, values, right=False):
        return Verdict("growing_small_scale")
    if values.size and values[-1] > 0 and _growing_at_edge(scales, values, right=True):
        return Verdict("growing_large_scale")
    return Verdict()


@dataclass(frozen=True)
class Sweep:
    """A tester's supremum: the constant, where it is attained (a box or a
    kernel base point), the ``(scale, value)`` ladder and its verdict."""

    constant: float
    witness: Optional[Union[CarlesonBox, complex]]
    ladder: tuple
    verdict: Verdict


def _best_boxes(masses: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of box masses (the last axis), the index and value of its
    first box of infinite mass, else of its first largest ``mass * weight``,
    with ``0 * inf = 0``: an empty box is worth nothing under any weight."""
    inf = np.isinf(masses)
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.where(masses > 0, masses * weights, 0.0)
    first = values.argmax(axis=-1)
    if inf.any():  # a divergent mass: the first one is its row's witness
        values = np.where(inf, math.inf, values)
        first = np.where(inf.any(axis=-1), inf.argmax(axis=-1), first)
    return first, values.max(axis=-1)


def _atomic_candidates(family: BoxFamily, lengths: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Per length (a row), the indices ``k`` of ``family.centers_at`` where
    a box mass can change: 0, and per atom the first ``k`` whose right edge
    ``-X + step k + L/2`` passes it and the first whose left edge does, by
    bisection on the edges as the grid rounds them, clipped to the grid.
    A crossing lies within ``pad`` of ``(x -+ L/2 + X) / step``: two, and
    more where rounding (a few ulps of ``2X + L``) exceeds a step."""
    extent = family.extent
    step = (lengths * family.step_fraction)[:, None, None]
    half = np.stack([0.5 * lengths, -0.5 * lengths], axis=1)[:, :, None]
    pad = 2 + np.ceil(8.0 * np.finfo(float).eps * (2.0 * extent + lengths[:, None, None]) / step)
    lo = np.floor((xs - half + extent) / step) - pad
    hi = lo + 2 * pad + 1
    for _ in range(int(2 * pad.max() + 1).bit_length()):
        mid = lo + np.floor(0.5 * (hi - lo))  # lo + hi can pass 2^53
        past = (-extent + step * mid) + half > xs
        hi, lo = np.where(past, mid, hi), np.where(past, lo, mid + 1)
    k = np.clip(hi, 0, np.floor(2.0 * extent / step)).reshape(len(lengths), -1)
    return np.concatenate((np.zeros((len(lengths), 1)), k), axis=1)


def _atomic_rows(family: BoxFamily, lengths: np.ndarray, weights: np.ndarray,
                 xs: np.ndarray, ys: np.ndarray, ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per length, the centre and value of the first best candidate box in
    ascending order, which is the full grid's.  Masses are prefix-sum
    differences over the atoms below the length in stable ``x`` order."""
    k = np.sort(_atomic_candidates(family, lengths, xs), axis=1)
    wide = (lengths >= 2.0 * family.extent)[:, None]  # one centred box
    centers = np.where(wide, 0.0, -family.extent + (lengths * family.step_fraction)[:, None] * k)
    o = np.argsort(xs, kind="stable")
    cum = np.cumsum(np.where(ys[o] < lengths[:, None], ms[o], 0.0), axis=1)
    cum = np.concatenate((np.zeros((len(lengths), 1)), cum), axis=1)
    half = 0.5 * lengths[:, None]
    lo, hi = (np.searchsorted(xs[o], centers + h, side="left") for h in (-half, half))
    masses = np.take_along_axis(cum, hi, axis=1) - np.take_along_axis(cum, lo, axis=1)
    i, values = _best_boxes(masses, weights[:, None])
    return centers[np.arange(len(lengths)), i], values


def _fold(rows: Iterable[tuple[Optional[float], float, object]]) -> Sweep:
    """The one sweep fold over ``(scale | None, value, witness)`` rows read
    in order.  The first infinite value ends the sweep as ``divergent``;
    otherwise the first largest value and its witness give the constant,
    and the rows with a scale form the ladder that decides the verdict."""
    best = -math.inf
    witness = None
    ladder: list[tuple[float, float]] = []
    for scale, value, at in rows:
        if scale is not None:
            ladder.append((scale, value))
        if math.isinf(value):
            return Sweep(math.inf, at, tuple(ladder), Verdict("divergent"))
        if value > best:
            best, witness = value, at
    verdict = _ladder_verdict(*np.reshape(ladder, (-1, 2)).T)
    return Sweep(max(best, 0.0), witness, tuple(ladder), verdict)


def carleson_box_constant(
    mu: UpperHalfPlaneMeasure,
    phi: GrowthFunction,
    s: float,
    family: BoxFamily = BoxFamily(),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Sweep:
    """Supremum of ``mu(Q_I) * phi(1/|I|^s)`` over ``family`` adapted to the
    measure (``adapted_box_family``), with its witness box.

    An infinite box value (a divergent mass, or a weight that overflows)
    makes the verdict ``divergent``; otherwise the ladder of per-length
    maxima decides it (growth toward a scale edge).
    Ties break toward the smallest length, then the leftmost center, so the
    witness is deterministic.

    On an atomic measure all lengths are one array (``_atomic_rows``): the
    masses are constant between the crossings of box edges and atoms, so
    the result is that of the full family.  An empty box is worth 0 even
    where the weight ``phi(1/|I|^s)`` overflows to ``inf``.
    """
    if s <= 0:
        raise ValueError("scale exponent s must be positive")
    family = adapted_box_family(mu, family)
    lengths = family.lengths()
    atoms = mu.atoms()

    def weights(lengths: Iterable[float]) -> np.ndarray:
        # a scalar call per length: an array power can differ in the last bit
        with np.errstate(over="ignore", divide="ignore"):
            return np.array([phi(1.0 / length ** s) for length in lengths])

    def rows() -> Iterator[tuple[float, float, float]]:
        """``(length, value, centre)`` per length, one at a time so that a
        divergent row ends the quadratures; without a region, one box."""
        for length in lengths:
            centers = np.array([0.0]) if mu.region is None else family.centers_at(length)
            masses = np.array([box_mass(mu, CarlesonBox(c, length), spec) for c in centers])
            i, value = _best_boxes(masses, weights([length]))
            yield length, value, centers[i]

    if atoms is None:
        swept = rows()
    else:
        centers, values = _atomic_rows(family, lengths, weights(lengths), *atoms.arrays())
        swept = zip(lengths, values, centers)
    return _fold((float(length), float(value), CarlesonBox(float(c), float(length)))
                 for length, value, c in swept)


# ---------------------------------------------------------------------------
# Pixelization (for the weak-type tester)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PixelGrid:
    """Uniform pixel decomposition of ``[x_lo, x_hi] x (0, y_hi]``."""

    x_lo: float = -16.0
    x_hi: float = 16.0
    y_hi: float = 16.0
    nx: int = 512
    ny: int = 512

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.linspace(self.x_lo, self.x_hi, self.nx + 1)
        ys = np.linspace(0.0, self.y_hi, self.ny + 1)
        return 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.linspace(self.x_lo, self.x_hi, self.nx + 1),
            np.linspace(0.0, self.y_hi, self.ny + 1),
        )


def pixel_masses(mu: UpperHalfPlaneMeasure, grid: PixelGrid) -> np.ndarray:
    """Per-pixel masses, exact for atoms and weighted volume, midpoint for
    densities; shape (nx, ny)."""
    return mu.pixel_masses(grid)
