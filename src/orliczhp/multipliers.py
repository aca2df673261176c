"""Embedding checks between Hardy/Bergman Orlicz spaces and the
pointwise-multiplier trichotomy.

The decisions all run through the profile function

* hardy -> bergman:   ``omega(t) = phi2^{-1}(1/t^(2+alpha)) / phi1^{-1}(1/t)``
* bergman -> bergman: ``omega(t) = phi2^{-1}(1/t^(2+beta)) / phi1^{-1}(1/t^(2+alpha))``

sampled on a log grid and classified by shape:

* flat (grid range inside a bracket, flat edge slopes) -- the multiplier
  space is the bounded analytic functions;
* nondecreasing with a vanishing left limit -- only the zero function
  multiplies;
* nonincreasing -- the omega-weighted bounded analytic functions.

Each branch carries its hypothesis checks (Dini/doubling verdicts and the
submultiplicativity conditions); a failed required check yields an
``out_of_theorem`` verdict naming the culprit instead of a guess.

Monotonicity and limits are sampled, never proven: ``inconclusive`` is a
first-class outcome, and a vanishing limit is operationalized by a probe
two decades below the grid requiring a steady per-decade shrink factor.

For power functions ``t^p, t^q`` the profile is exactly ``t^e`` with
``e = 1/p - (2+alpha)/q`` (resp. ``(2+alpha)/p - (2+beta)/q``), which pins
the expected classification to the sign of ``e`` and gives the regression
lattice used by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .growth import (
    ComposedInverse,
    GrowthClassification,
    GrowthFunction,
    LogGrid,
    _DINI_J_MAX,
    _EDGE_SLOPE_EPS,
    _growing_at_edge,
    classify,
)
from .measure import DensityMeasure

__all__ = [
    "OmegaProfile",
    "omega_values",
    "omega_profile",
    "EmbedCheck",
    "embed_check",
    "MultiplierVerdict",
    "multiplier_space",
    "section6_measure",
    "section6_annulus_bound",
    "POWER_LATTICE_P",
    "POWER_LATTICE_Q",
]

# Regression lattice for power pairs: exponents strictly above 1 so the
# Dini condition holds, and q/p > 1 throughout so the composed function
# keeps it as well.
POWER_LATTICE_P: tuple[float, ...] = (1.25, 1.5, 2.0, 2.5, 3.0)
POWER_LATTICE_Q: tuple[float, ...] = (4.0, 5.0, 6.0, 8.0, 10.0)


def _variant_exponents(variant: str, alpha: float, beta: Optional[float]) -> tuple[float, float]:
    """The (source, target) exponents ``e`` of the variant's weights
    ``t^e``: ``(1, 2 + alpha)`` for hardy_to_bergman and ``(2 + alpha,
    2 + beta)`` for bergman_to_bergman, which needs ``beta``."""
    if variant == "hardy_to_bergman":
        return 1.0, 2.0 + alpha
    if variant != "bergman_to_bergman":
        raise ValueError(f"unknown variant {variant!r}")
    if beta is None:
        raise ValueError("bergman variant needs beta")
    return 2.0 + alpha, 2.0 + beta


def omega_values(
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    variant: str,
    alpha: float,
    beta: Optional[float],
    ts: np.ndarray,
) -> np.ndarray:
    source, target = _variant_exponents(variant, alpha, beta)
    inv_t = 1.0 / ts
    return np.asarray(phi2.inverse(inv_t ** target)) / np.asarray(phi1.inverse(inv_t ** source))


@dataclass(frozen=True)
class OmegaProfile:
    variant: str
    alpha: float
    beta: Optional[float]
    phi1: GrowthFunction
    phi2: GrowthFunction
    ts: tuple
    values: tuple
    classification: str
    bracket: tuple


_FLAT_BRACKET = 4.0  # a flat profile's range stays within [1/4, 4]
_SHRINK_PER_DECADE = 1.05  # a vanishing profile shrinks by this per decade
_VANISH_THRESHOLD = 0.95  # and is below this two decades below the grid


def omega_profile(
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    variant: str = "hardy_to_bergman",
    alpha: float = 0.0,
    beta: Optional[float] = None,
    grid: LogGrid = LogGrid(),
) -> OmegaProfile:
    """Sample and classify the profile function.

    Flat means the grid range stays within ``[1/4, 4]`` (``_FLAT_BRACKET
    = 4``) and both edge slopes are below ``growth._EDGE_SLOPE_EPS = 0.02``
    in log-log.  Vanishing is probed two decades below the grid: the value
    must shrink by at least ``_SHRINK_PER_DECADE = 1.05`` per decade (the
    rate test) and sit below ``_VANISH_THRESHOLD = 0.95`` there (a guard
    against a plateau above zero); shrink rates below about five percent
    per decade are unresolvable and come back inconclusive.  So does a
    profile that is not positive and finite on the grid (a weight power
    overflows for a huge ``alpha``).
    """
    ts = grid.values()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = omega_values(phi1, phi2, variant, alpha, beta, ts)
    bad = np.flatnonzero(~((vals > 0) & np.isfinite(vals)))
    classification = "inconclusive" if bad.size else _profile_shape(
        ts, vals, grid, lambda t: omega_values(phi1, phi2, variant, alpha, beta, t))
    step = max(1, grid.points // 64)
    return OmegaProfile(
        variant=variant,
        alpha=alpha,
        beta=beta,
        phi1=phi1,
        phi2=phi2,
        ts=tuple(ts[::step]),
        values=tuple(vals[::step]),
        classification=classification,
        bracket=(float(np.min(vals)), float(np.max(vals))),
    )


def _profile_shape(ts: np.ndarray, vals: np.ndarray, grid: LogGrid,
                   omega: Callable[[np.ndarray], np.ndarray]) -> str:
    """Classification of a positive, finite profile sampled as ``vals`` on
    ``ts``; ``omega`` evaluates it below the grid."""
    diffs = np.diff(vals)
    tol = 1e-9 * np.maximum(vals[:-1], vals[1:])
    nondecreasing = bool(np.all(diffs >= -tol))
    nonincreasing = bool(np.all(diffs <= tol))

    lts = np.log(ts)
    lvs = np.log(vals)
    k = max(3, int(round(grid.points / math.log10(grid.t_max / grid.t_min))))
    left_slope = np.polyfit(lts[:k], lvs[:k], 1)[0]
    right_slope = np.polyfit(lts[-k:], lvs[-k:], 1)[0]
    ratio = float(np.max(vals) / np.min(vals))
    flat = (
        ratio <= _FLAT_BRACKET ** 2
        and abs(left_slope) < _EDGE_SLOPE_EPS
        and abs(right_slope) < _EDGE_SLOPE_EPS
    )

    if flat:
        return "equivalent_to_one"
    if nondecreasing:
        # probe the vanishing limit two decades below the grid
        probes = grid.t_min * 10.0 ** np.array([-2.0, -1.0, 0.0])
        pv = omega(probes)
        shrinks = pv[1] / pv[0] >= _SHRINK_PER_DECADE and pv[2] / pv[1] >= _SHRINK_PER_DECADE
        if shrinks and pv[0] < _VANISH_THRESHOLD:
            return "nondecreasing_vanishing"
        return "inconclusive"
    if nonincreasing:
        return "nonincreasing"
    return "inconclusive"


@dataclass(frozen=True)
class EmbedCheck:
    holds: bool
    constant: Optional[float]
    witness: Optional[float]
    edge: str = ""


def embed_check(
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    variant: str = "hardy_to_bergman",
    alpha: float = 0.0,
    beta: Optional[float] = None,
    grid: LogGrid = LogGrid(),
) -> EmbedCheck:
    """Space-embedding criterion ``phi1^{-1}(t) <= phi2^{-1}(C t^(2+alpha))``
    (resp. the two-weight variant), tested as boundedness of
    ``phi2(phi1^{-1}(t)) / t^(2+alpha)`` with an edge-slope scan.  A ratio
    that is not finite at a grid point (the weight power overflows for a
    huge ``alpha``) fails there, on the side of ``t = 1`` it lies on."""
    source, target = _variant_exponents(variant, alpha, beta)
    ts = grid.values()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = np.asarray(phi2(phi1.inverse(ts ** source))) / ts ** target
    bad = ts[~np.isfinite(ratio)]
    if bad.size:
        return EmbedCheck(False, None, float(bad[0]), "small_t" if bad[0] < 1 else "large_t")
    if _growing_at_edge(ts, ratio, right=False):
        return EmbedCheck(False, None, float(ts[0]), "small_t")
    if _growing_at_edge(ts, ratio, right=True):
        return EmbedCheck(False, None, float(ts[-1]), "large_t")
    return EmbedCheck(True, float(np.max(ratio)), None)


@dataclass(frozen=True)
class MultiplierVerdict:
    space: str                    # H_infinity | zero_space | H_infinity_omega | out_of_theorem
    profile_classification: str
    hypothesis_table: dict
    required: tuple
    failed: tuple

    def as_dict(self) -> dict:
        return {
            "space": self.space,
            "profile_classification": self.profile_classification,
            "hypothesis_table": dict(self.hypothesis_table),
            "required": list(self.required),
            "failed": list(self.failed),
        }


def multiplier_space(
    profile: OmegaProfile,
    phi1_cls: GrowthClassification,
    phi2_cls: GrowthClassification,
    composed_cls: GrowthClassification,
) -> MultiplierVerdict:
    """Map the profile shape and hypothesis checks to the trichotomy.

    * flat profile + phi1 Dini pass        -> bounded analytic multipliers
    * nondecreasing vanishing profile      -> zero space
    * nonincreasing profile + phi1 and composed Dini pass
      + phi2 submultiplicativity conditions -> omega-weighted bounded
    """
    table = {
        "phi1_nabla2": phi1_cls.nabla2_passed,
        "phi2_nabla2": phi2_cls.nabla2_passed,
        "composed_nabla2": composed_cls.nabla2_passed,
        "phi2_tilde": phi2_cls.tilde_passed,
    }
    cls = profile.classification
    if cls == "equivalent_to_one":
        required = ("phi1_nabla2",)
        space = "H_infinity"
    elif cls == "nondecreasing_vanishing":
        required = ()
        space = "zero_space"
    elif cls == "nonincreasing":
        required = ("phi1_nabla2", "composed_nabla2", "phi2_tilde")
        space = "H_infinity_omega"
    else:
        return MultiplierVerdict(
            "out_of_theorem", cls, table, (), ("profile_inconclusive",)
        )
    failed = tuple(name for name in required if not table[name])
    if failed:
        return MultiplierVerdict("out_of_theorem", cls, table, required, failed)
    return MultiplierVerdict(space, cls, table, required, ())


def section6_measure(
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    variant: str = "hardy_to_bergman",
    alpha: float = 0.0,
) -> tuple[DensityMeasure, bool]:
    """The multiplier-proof measure ``dV / (y^2 * g(1/y^e))`` with
    ``g = phi2 o phi1^{-1}`` and ``e = 1`` (hardy variant) or ``2 + alpha``.

    Also returns the expected box-test verdict: the measure is Carleson
    for ``g`` exactly when ``g`` passes the Dini check.
    """
    g = ComposedInverse(outer=phi2, inner=phi1)
    e = _variant_exponents(variant, alpha, 0.0)[0]  # beta plays no part here

    def profile(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            denom = y * y * np.asarray(g(y ** (-e)))
            return np.where(denom > 0, 1.0 / denom, np.inf)

    expected = classify(g).nabla2_passed
    label = f"1/(y^2 * composed(1/y^{e:g}))"
    return DensityMeasure(profile, label), expected


def section6_annulus_bound(composed: GrowthFunction, length: float) -> float:
    """Dyadic annulus upper bound for the box mass of the hardy-variant
    measure above (``e = 1``): ``sum_j 2^(j+1) / g(2^j / |I|)`` over the
    annuli ``j <= _DINI_J_MAX`` of the Dini integral, each annulus bounded
    by its worst density value times its height."""
    js = np.arange(_DINI_J_MAX + 1)
    with np.errstate(over="ignore"):
        denom = np.asarray(composed(2.0 ** js / length))
    terms = np.where(denom > 0, 2.0 ** (js + 1) / denom, 0.0)
    return float(np.sum(terms[np.isfinite(terms)]))
