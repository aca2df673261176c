"""Modulars, Luxembourg norms, and the explicit kernel test functions.

The modular of ``f`` against a growth function ``phi`` and a measure is
``int phi(|f|) dmu``; the Luxembourg norm is the infimum of ``lam > 0``
with modular of ``f/lam`` at most 1, computed by bisection on ``lam``
(monotone, since phi is nondecreasing).  For a pure power ``phi = c t^p``
the norm has the closed form ``modular(f)^(1/p)``, which every norm here
takes for a ``Power`` phi (``_luxembourg_norm``); ``luxembourg`` itself
always bisects, so tests can play the two against each other.

Hardy-type norms take a supremum over a geometric grid of heights;
since every line modular decreases in ``lam``, the sup of the line
Luxembourg norms is one bisection on the row maximum of the line modulars.
Bergman-type norms integrate over the half-plane against ``y^alpha``.
Both report the modular form and the Luxembourg form.

Along a horizontal line the x-integral of ``phi(|f|)`` for a
``CarlesonKernel`` is a function of the height alone, for every ``phi``
(``GrowthFunction.kernel_lines``): a beta function for a power, exp-sinh
rows otherwise.  So a kernel's Hardy norm is one such call on its height
grid, and its modular on a weighted volume or a density a 1-D height
integral (``modular_halfplane``), a second beta function on a volume for a
power.  Only other integrands and restricted measures reach a 2-D rule.
On a measure with atoms ``kernel_modulars`` takes the modulars of many
kernels from one (kernels x atoms) array, each bitwise its own
``modular_halfplane``.

Test functions are the rational kernels

* ``CarlesonKernel``: ``phi^{-1}(1/y0^s) * y0^(2s) / (w - conj(z0))^(2s)``, s > 0,
* ``HardyKernel``: the Hardy-Orlicz kernel, ``s = 1``,
* ``BergmanKernel``: the Bergman-Orlicz kernel for ``y^a``, ``s = 2 + a``,

plus Poisson extensions of step functions and scaled box indicators.
Holomorphy is by construction; nothing here certifies it numerically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .growth import GrowthFunction, Power, _pointwise
from .integrals import DEFAULT_SPEC, QuadratureSpec, integrate_line_rows
from .maximal import PoissonExtension, StepFunction1D
from .measure import CarlesonBox, UpperHalfPlaneMeasure, WeightedVolume, box_mass

__all__ = [
    "CarlesonKernel",
    "HardyKernel",
    "BergmanKernel",
    "PoissonOfStep",
    "IndicatorScaled",
    "step_modular_line",
    "modular_halfplane",
    "kernel_modulars",
    "luxembourg",
    "luxembourg_step_line",
    "HardyNormResult",
    "hardy_norm",
    "BergmanNormResult",
    "bergman_norm",
    "default_height_grid",
]


class NormBracketError(RuntimeError):
    """The Luxembourg bisection could not bracket a finite norm."""


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CarlesonKernel:
    """``phi^{-1}(1/y0^s) * y0^(2s) / (w - conj(z0))^(2s)`` for ``z0 = x0 + i y0``.

    Its magnitude at ``z0`` itself is ``phi^{-1}(1/y0^s) / 4^s``.
    """

    z0: complex
    phi: GrowthFunction
    s: float

    def __post_init__(self) -> None:
        if self.z0.imag <= 0:
            raise ValueError("kernel base point must lie in the upper half-plane")
        if not 0.0 < self.s < math.inf:
            raise ValueError("kernel exponent s must be positive and finite")
        object.__setattr__(self, "_amp", self.phi.kernel_amplitude(self.z0.imag, self.s))

    @property
    def amplitude(self) -> float:
        return self._amp

    @property
    def natural_scale(self) -> float:
        return self.z0.imag

    @property
    def natural_center(self) -> float:
        return self.z0.real

    def _of_d2(self, d2) -> np.ndarray:
        """``|f|`` as a function of ``d2 = |w - conj(z0)|^2``, in the ratio
        form ``amp (y0^2 / d2)^s``: ``y0^(2s)`` alone overflows from s = 64
        at y0 = 2^8, while ``y0^2 / d2 < 1`` in the half-plane."""
        return self._amp * (self.z0.imag ** 2 / d2) ** self.s

    def abs_value(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return self._of_d2((x - self.z0.real) ** 2 + (y + self.z0.imag) ** 2)

    def cone_sup(self, x, y_range: tuple[float, float] = (1e-3, 1e3)) -> np.ndarray:
        """Exact sup of ``|f|`` over the cone ``|t - x| < y``, ``y`` in ``y_range``.
        Minimised over ``t`` (``d = |x - x0|``) the squared distance
        ``max(d - y, 0)^2 + (y + y0)^2`` is convex in ``y`` and ``|f|``
        decreases in it, so ``y = clip((d - y0) / 2)`` maximises for every ``s``."""
        y0, d = self.z0.imag, np.abs(np.atleast_1d(x) - self.z0.real)
        y = np.clip(0.5 * (d - y0), *y_range)
        return self._of_d2(np.maximum(d - y, 0.0) ** 2 + (y + y0) ** 2)


def HardyKernel(z0: complex, phi: GrowthFunction) -> CarlesonKernel:
    """The Hardy-Orlicz test kernel: ``CarlesonKernel`` at ``s = 1``."""
    return CarlesonKernel(z0, phi, 1.0)


def BergmanKernel(z0: complex, phi: GrowthFunction, alpha: float = 0.0) -> CarlesonKernel:
    """The Bergman-Orlicz test kernel for the weight ``y^alpha``:
    ``CarlesonKernel`` at ``s = 2 + alpha``."""
    if alpha <= -1:
        raise ValueError("weight exponent must exceed -1")
    return CarlesonKernel(z0, phi, 2.0 + alpha)


@dataclass(frozen=True, eq=False)
class PoissonOfStep:
    """|Poisson extension| of a step function on the line."""

    g: StepFunction1D

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ext", PoissonExtension(self.g))

    def abs_value(self, x, y) -> np.ndarray:
        return np.abs(self._ext(x, y))


@dataclass(frozen=True)
class IndicatorScaled:
    """``lam`` on a Carleson box, zero elsewhere."""

    lam: float
    box: CarlesonBox

    def abs_value(self, x, y) -> np.ndarray:
        return abs(self.lam) * self.box.contains(x, y).astype(float)


# ---------------------------------------------------------------------------
# Modulars
# ---------------------------------------------------------------------------

def step_modular_line(f: StepFunction1D, phi: GrowthFunction, scale: float = 1.0) -> float:
    """Exact ``int phi(|f|/scale) dx`` for a step function on the line."""
    widths = np.diff(f.edges)
    vals = np.abs(f.values) / scale
    return float(np.sum(phi(vals) * widths))


def modular_halfplane(
    f,
    phi: GrowthFunction,
    mu: UpperHalfPlaneMeasure,
    spec: QuadratureSpec = DEFAULT_SPEC,
    scale: float = 1.0,
) -> float:
    """``int phi(|f| / scale) dmu`` over the half-plane by the measure's own
    rule; ``inf`` marks a detected divergence.

    ``f`` is a test function (anything with ``abs_value``) or a bare
    ``|f|(x, y)`` callable.  Scaled box indicators short-circuit to the
    exact value ``phi(lam/scale) * mu(box)``.

    A ``CarlesonKernel`` on a measure with a ``kernel_modular`` (a weighted
    volume or a density) is, under any ``phi``, the height integral of its
    line modulars ``phi.kernel_lines`` at amplitude ``a / scale``: it does
    not depend on ``x0``, and ``y0^(2s)`` is never formed.  Every other
    integrand or measure runs the measure's ``integrate``: atom sums, or a
    2-D rule (the product rule, or the box rule of a restricted measure).
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if isinstance(f, IndicatorScaled):
        return float(phi(abs(f.lam) / scale)) * box_mass(mu, f.box, spec)
    kernel_modular = getattr(mu, "kernel_modular", None)
    if kernel_modular is not None and isinstance(f, CarlesonKernel):
        return kernel_modular(phi, f.amplitude / scale, f.s, f.z0.imag, spec)
    hint_scale = float(getattr(f, "natural_scale", 1.0))
    hint_center = float(getattr(f, "natural_center", 0.0))
    f_abs = f.abs_value if hasattr(f, "abs_value") else f
    return mu.integrate(
        lambda x, y: phi(f_abs(x, y) / scale), spec, hint_center, hint_scale
    )


def kernel_modulars(
    kernels: Iterable,
    phi: GrowthFunction,
    mu: UpperHalfPlaneMeasure,
    spec: QuadratureSpec = DEFAULT_SPEC,
    scales: Optional[Iterable[float]] = None,
) -> Iterator[float]:
    """``modular_halfplane(f, phi, mu, spec, scale)`` for each kernel and
    scale (1 by default), in order.

    On a measure with atoms, when every kernel is a ``CarlesonKernel`` of
    one ``s`` and ``phi`` maps entries on their own (``growth._pointwise``),
    all the modulars come from one ``(kernels, atoms)`` array: ``|f| /
    scale`` by ``abs_value``'s arithmetic, one ``phi`` call, and
    ``mu.integrate_rows``.  Each is bitwise its ``modular_halfplane``.
    Otherwise each is a ``modular_halfplane`` call, made when it is read,
    so a caller that stops at a divergent modular runs no more of them.
    """
    scales = itertools.repeat(1.0) if scales is None else scales
    if mu.atoms() is not None and _pointwise(phi):
        kernels = list(kernels)
        scales = [sc for sc, _ in zip(scales, kernels)]
        exponents = {f.s if isinstance(f, CarlesonKernel) else None for f in kernels}
        if len(exponents) == 1 and None not in exponents:
            return iter(_atom_modulars(kernels, exponents.pop(), phi, mu, scales))
    return (modular_halfplane(f, phi, mu, spec, scale=sc) for f, sc in zip(kernels, scales))


def _atom_modulars(kernels: list, s: float, phi: GrowthFunction,
                   mu: UpperHalfPlaneMeasure, scales: list) -> list[float]:
    """The rows of ``kernel_modulars`` on a measure with atoms, for kernels
    of one exponent ``s``: ``abs_value``'s arithmetic and ``modular_halfplane``'s
    division by the scale, on columns of per-kernel constants."""
    if any(sc <= 0 for sc in scales):
        raise ValueError("scale must be positive")

    def column(values) -> np.ndarray:
        return np.array(values, dtype=float)[:, None]

    x0 = column([f.z0.real for f in kernels])
    y0 = column([f.z0.imag for f in kernels])
    y0sq = column([f.z0.imag ** 2 for f in kernels])  # a float square, as in _of_d2
    amp = column([f.amplitude for f in kernels])
    sc = column(scales)

    def rows(x, y):
        d2 = (x - x0) ** 2 + (y + y0) ** 2
        return phi(amp * (y0sq / d2) ** s / sc)

    return mu.integrate_rows(rows, len(kernels)).tolist()


# ---------------------------------------------------------------------------
# Luxembourg norms
# ---------------------------------------------------------------------------

def luxembourg(modular_at: Callable[[float], float], tol: float = 1e-10) -> float:
    """``inf { lam > 0 : modular_at(lam) <= 1 }`` by bisection in log-lam
    on ``[1e-12, 1e12]``, at most 200 steps; ``modular_at(lam)`` must be
    nonincreasing in ``lam``."""
    lo, hi = 1e-12, 1e12
    if modular_at(lo) <= 1.0:
        return 0.0
    hi_val = modular_at(hi)
    if hi_val > 1.0 or math.isinf(hi_val):
        raise NormBracketError(
            f"modular still {hi_val} at lam = {hi:g}; norm not representable"
        )
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        m = modular_at(mid)
        if m > 1.0:
            lo = mid
        else:
            hi = mid
            if abs(m - 1.0) <= tol:
                break
        if hi / lo < 1.0 + 1e-14:
            break
    return hi


def _luxembourg_norm(
    phi: GrowthFunction,
    modular: float,
    modular_at: Callable[[float], float],
    tol: float = 1e-10,
) -> float:
    """Luxembourg norm from the modular at scale 1: ``modular^(1/p)`` for
    ``phi = c t^p``, exact by homogeneity (0 and ``inf`` included), and
    otherwise the ``luxembourg`` bisection (to ``tol``) on ``modular_at``."""
    if isinstance(phi, Power):
        return modular ** (1.0 / phi.p)
    return luxembourg(modular_at, tol=tol)


def luxembourg_step_line(f: StepFunction1D, phi: GrowthFunction, tol: float = 1e-10) -> float:
    """Luxembourg norm of a line step function (exact cell modulars); in
    closed form for a ``Power`` phi, by bisection (to ``tol``) otherwise."""
    return _luxembourg_norm(
        phi, step_modular_line(f, phi), lambda lam: step_modular_line(f, phi, scale=lam), tol
    )


def _decade_grid(lo: float, hi: float, per_decade: int) -> np.ndarray:
    """Geometric grid from ``lo`` to ``hi`` with ``per_decade`` steps per decade."""
    return np.geomspace(lo, hi, int(round(per_decade * math.log10(hi / lo))) + 1)


def default_height_grid() -> np.ndarray:
    """The Hardy norm's heights: 1e-4 to 1e4, 8 per decade (65 heights)."""
    return _decade_grid(1e-4, 1e4, 8)


@dataclass(frozen=True)
class HardyNormResult:
    modular_sup: float
    luxembourg_sup: float
    y_at_modular_max: float
    heights: tuple
    converged: bool
    error: float


def hardy_norm(
    f,
    phi: GrowthFunction,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> HardyNormResult:
    """Sup over ``default_height_grid()`` of line modulars (modular form) and
    of line Luxembourg norms (norm form).  The grid sup is a lower bound of
    the exact sup over all heights; the tested kernel families are
    monotone or unimodal in height, which keeps it tight.

    The line modulars of all heights at a scale ``lam`` are one call, a row
    per height: ``phi.kernel_lines`` at amplitude ``a / lam`` for a
    ``CarlesonKernel``, and ``integrate_line_rows`` on the width
    ``natural_scale + y`` for any other input.  The call at scale 1 gives
    ``modular_sup``; ``converged`` is true only if every row of it
    converged, and ``error`` is its worst row's error estimate.

    Every line modular decreases in ``lam``, so the sup of the line
    Luxembourg norms is ``inf { lam : max_y M_y(lam) <= 1 }``: a ``Power``
    phi takes it in closed form from ``modular_sup``, and any other phi
    bisects once on the row maximum at scale ``lam``."""
    ys = default_height_grid()
    if isinstance(f, CarlesonKernel):
        def rows_at(lam: float):
            return phi.kernel_lines(f.amplitude / lam, f.s, f.z0.imag, ys, spec)
    else:
        x_scale = float(getattr(f, "natural_scale", 1.0))
        x_center = float(getattr(f, "natural_center", 0.0))
        f_abs = f.abs_value if hasattr(f, "abs_value") else f
        widths = x_scale + ys  # kernel slices flatten out at height y

        def rows_at(lam: float):
            return integrate_line_rows(
                lambda X, r: phi(np.abs(f_abs(X, ys[r, None])) / lam), spec, x_center, widths
            )

    rows = rows_at(1.0)
    values = rows.values
    converged, error = bool(np.all(rows.converged)), float(np.max(rows.errors))

    def modular_at(lam: float) -> float:
        return float(np.max(rows_at(lam).values))

    i = int(np.argmax(values))
    modular_sup = float(values[i])
    return HardyNormResult(
        modular_sup=modular_sup,
        luxembourg_sup=_luxembourg_norm(phi, modular_sup, modular_at),
        y_at_modular_max=float(ys[i]),
        heights=tuple(ys),
        converged=converged,
        error=error,
    )


@dataclass(frozen=True)
class BergmanNormResult:
    modular: float
    luxembourg: float
    alpha: float


def bergman_norm(
    f,
    phi: GrowthFunction,
    alpha: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> BergmanNormResult:
    """Half-plane modular against ``y^alpha`` and its Luxembourg norm, in
    closed form for a ``Power`` phi and by bisection otherwise."""
    mu = WeightedVolume(alpha)
    mod = modular_halfplane(f, phi, mu, spec)
    lux = _luxembourg_norm(
        phi, mod, lambda lam: modular_halfplane(f, phi, mu, spec, scale=lam)
    )
    return BergmanNormResult(modular=mod, luxembourg=lux, alpha=alpha)
