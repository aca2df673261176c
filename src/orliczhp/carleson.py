"""Cross-verification of the three Carleson testing conditions.

For a measure on the half-plane, a pair of growth functions and a scale
exponent ``s``, three quantities are played against each other:

* the box condition: ``sup_I mu(Q_I) * (phi2 o phi1^{-1})(1/|I|^s)``;
* the kernel condition: the supremum over base points ``z = x + iy`` of
  ``int phi2( phi1^{-1}(1/y^s) * y^{2s} / |z - conj(w)|^{2s} ) dmu(w)``;
* the embedding condition: the smallest ``K`` on a geometric grid making
  ``int phi2(|f| / (K ||f||)) dmu <= 1`` for every member of a kernel
  test family normalized in its source space.

The three are equivalent (finite together or infinite together) whenever
the corresponding embedding theorem applies; the verifier computes all of
them, reports constants, witnesses and pairwise ratios, and flags any
verdict disagreement instead of reconciling it.

Suprema over base points and family members are lower bounds from finite
ladders; unboundedness is detected as a consistent growth trend toward a
ladder edge, exactly as in the box sweep.

The embedding and weak-type constants are found on index grids by one
search, ``_first_admissible``.  For a power ``phi2`` the embedding search is
seeded with the index that one modular per member predicts by homogeneity,
and the seed is confirmed by the real integral at that index and the one
below; other ``phi2`` are bisected.  The weak-type search computes the
measure's mass points once per call and ``|f|`` on them once per member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .growth import ComposedInverse, GrowthFunction, Power, _edge_trend, classify
from .integrals import DEFAULT_SPEC, QuadratureSpec
from .maximal import StepFunction1D, level_sets, nontangential_maximal
from .measure import (
    AtomicMeasure,
    BoxFamily,
    BoxSweep,
    CarlesonBox,
    PixelGrid,
    UpperHalfPlaneMeasure,
    adapted_box_family,
    box_mass,
    carleson_box_constant,
    pixel_masses,
)
from .spaces import (
    BergmanKernel,
    HardyKernel,
    bergman_norm,
    hardy_norm,
    luxembourg_step_line,
    modular_halfplane,
)

__all__ = [
    "carleson_kernel",
    "KernelSweep",
    "kernel_testing_constant",
    "annulus_kernel_sum",
    "NormedMember",
    "hardy_test_family",
    "bergman_test_family",
    "weak_hardy_family",
    "EmbeddingResult",
    "embedding_constant",
    "EquivalenceReport",
    "verify_equivalence",
    "WeakTypeResult",
    "weak_type_constant",
    "levelset_comparison_hardy",
    "levelset_comparison_bergman",
    "default_k_grid",
]


@dataclass(frozen=True, eq=False)
class CarlesonKernelFn:
    """``|k_z|(u, v) = phi1^{-1}(1/y^s) * y^{2s} / ((u-x)^2 + (v+y)^2)^s``."""

    phi1: GrowthFunction
    s: float
    z: complex

    def __post_init__(self) -> None:
        if self.z.imag <= 0:
            raise ValueError("base point must lie in the upper half-plane")
        amp = float(self.phi1.inverse(1.0 / self.z.imag ** self.s))
        object.__setattr__(self, "_amp", amp)

    @property
    def natural_scale(self) -> float:
        return self.z.imag

    @property
    def natural_center(self) -> float:
        return self.z.real

    def abs_value(self, u, v) -> np.ndarray:
        y = self.z.imag
        d2 = (np.asarray(u, float) - self.z.real) ** 2 + (np.asarray(v, float) + y) ** 2
        return self._amp * y ** (2.0 * self.s) * d2 ** (-self.s)

    __call__ = abs_value


def carleson_kernel(phi1: GrowthFunction, s: float, z: complex) -> CarlesonKernelFn:
    return CarlesonKernelFn(phi1, s, z)


def default_sample_points(
    mu: UpperHalfPlaneMeasure, k_min: int = -8, k_max: int = 8
) -> tuple[list[complex], list[complex]]:
    """Dyadic ladder of base points plus measure-adapted extras.

    The ladder (fixed x, heights ``2^k``) is what the growth-trend test
    reads; extras only enter the supremum.
    """
    x0 = 0.0 if mu.region is None else mu.region.center_x
    heights = adapted_heights(mu, [2.0 ** k for k in range(k_min, k_max + 1)])
    ladder = [complex(x0, h) for h in heights]
    extras: list[complex] = []
    atoms = mu.atoms()
    if atoms is not None:
        xs, ys, _ = atoms.arrays()
        for x, y in zip(xs, ys):
            extras.append(complex(x, y))
            extras.append(complex(x, 2.0 * y))
    return ladder, extras


@dataclass(frozen=True)
class KernelSweep:
    constant: float
    witness: Optional[complex]
    divergent_integral: bool
    trend: str
    ladder: tuple  # (height, value) pairs
    note: str = "sample sup (lower bound for the supremum over all base points)"

    @property
    def finite(self) -> bool:
        return not self.divergent_integral and self.trend == "bounded"


def kernel_testing_constant(
    mu: UpperHalfPlaneMeasure,
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    s: float,
    points: Optional[Sequence[complex]] = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> KernelSweep:
    """Supremum over base points of the kernel integral, with divergence
    flags from the density probes and a growth-trend verdict along the
    dyadic height ladder."""
    if points is None:
        ladder, extras = default_sample_points(mu)
    else:
        ladder, extras = list(points), []
    best = -math.inf
    witness = None
    divergent = False
    ladder_vals: list[tuple[float, float]] = []

    def value_at(z: complex) -> float:
        return modular_halfplane(carleson_kernel(phi1, s, z), phi2, mu, spec)

    for z in ladder:
        v = value_at(z)
        ladder_vals.append((z.imag, v))
        if math.isinf(v):
            divergent = True
            witness = z
            break
        if v > best:
            best, witness = v, z
    if not divergent:
        for z in extras:
            v = value_at(z)
            if math.isinf(v):
                divergent = True
                witness = z
                break
            if v > best:
                best, witness = v, z

    if divergent:
        return KernelSweep(math.inf, witness, True, "bounded", tuple(ladder_vals))
    ys = np.array([p[0] for p in ladder_vals])
    vals = np.array([p[1] for p in ladder_vals])
    trend = _edge_trend(ys, vals)
    return KernelSweep(max(best, 0.0), witness, False, trend, tuple(ladder_vals))


def annulus_kernel_sum(
    mu: AtomicMeasure,
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    s: float,
    z: complex,
) -> float:
    """Kernel sum for an atomic measure accumulated over the dyadic annuli
    ``E_j = Q_{I_j} \\ Q_{I_{j-1}}`` around the base point's box.

    Pure bookkeeping: must agree with the direct sum to rounding, which the
    tests assert.  Boxes grow until every atom is captured.
    """
    xs, ys, ms = mu.arrays()
    if xs.size == 0:
        return 0.0
    k = carleson_kernel(phi1, s, z)
    contributions = ms * phi2(k(xs, ys))
    total = 0.0
    assigned = np.zeros(xs.size, dtype=bool)
    j = 0
    length = 2.0 * z.imag
    while not np.all(assigned):
        box = CarlesonBox(z.real, length * 2.0 ** j)
        inside = box.contains(xs, ys) & ~assigned
        total += float(contributions[inside].sum())
        assigned |= inside
        j += 1
        if j > 4096:  # atoms all have finite coordinates, so unreachable
            raise RuntimeError("annulus decomposition failed to exhaust atoms")
    return total


# ---------------------------------------------------------------------------
# Test families and the embedding condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NormedMember:
    label: str
    f: object                    # anything with .abs_value
    source_norm: float
    scale_y: float                # ladder position for the trend test


DEFAULT_KERNEL_HEIGHTS: tuple[float, ...] = tuple(2.0 ** k for k in range(-4, 5))


def adapted_heights(
    mu: UpperHalfPlaneMeasure,
    base: Sequence[float] = DEFAULT_KERNEL_HEIGHTS,
) -> tuple[float, ...]:
    """Extend a dyadic height ladder past an atomic measure's height range.

    Trend verdicts read the ladder edges, so the ladder has to reach the
    regime where the measure no longer feeds the constants (kernel values
    and member constants decay once the base point clears the atoms).
    """
    atoms = mu.atoms()
    if atoms is None or len(atoms.masses) == 0:
        return tuple(base)
    ys = atoms.arrays()[1]
    k_lo = min(
        int(math.floor(math.log2(min(base)))),
        int(math.floor(math.log2(float(ys.min())))) - 1,
    )
    k_hi = max(
        int(math.ceil(math.log2(max(base)))),
        int(math.ceil(math.log2(float(ys.max())))) + 4,
    )
    return tuple(2.0 ** k for k in range(k_lo, k_hi + 1))


def hardy_test_family(
    phi1: GrowthFunction,
    heights: Sequence[float] = DEFAULT_KERNEL_HEIGHTS,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[NormedMember]:
    """Hardy-kernel family normalized by the Luxembourg Hardy norm."""
    members = []
    for y0 in heights:
        f = HardyKernel(complex(0.0, y0), phi1)
        norm = hardy_norm(f, phi1, spec=spec).luxembourg_sup
        members.append(NormedMember(f"hardy_kernel(y0={y0:g})", f, norm, y0))
    return members


def bergman_test_family(
    phi1: GrowthFunction,
    alpha: float,
    heights: Sequence[float] = DEFAULT_KERNEL_HEIGHTS,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> list[NormedMember]:
    members = []
    for y0 in heights:
        f = BergmanKernel(complex(0.0, y0), phi1, alpha)
        norm = bergman_norm(f, phi1, alpha, spec=spec).luxembourg
        members.append(NormedMember(f"bergman_kernel(y0={y0:g})", f, norm, y0))
    return members


def weak_hardy_family(
    phi1: GrowthFunction,
    heights: Sequence[float] = DEFAULT_KERNEL_HEIGHTS,
    x_window: float = 64.0,
    n_cells: int = 2048,
) -> list[NormedMember]:
    """Hardy kernels normalized by the Luxembourg norm of their nontangential
    maximal function (the weak-type normalizer): the exact cone supremum
    ``HardyKernel.cone_sup`` at the centres of ``n_cells`` line cells."""
    members = []
    edges = np.linspace(-x_window, x_window, n_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    for y0 in heights:
        f = HardyKernel(complex(0.0, y0), phi1)
        norm = luxembourg_step_line(StepFunction1D(edges, f.cone_sup(centers)), phi1)
        members.append(NormedMember(f"hardy_kernel(y0={y0:g})*", f, norm, y0))
    return members


# A modular within this band above 1 passes ``modular <= 1``: matched
# volumes have a modular of exactly 1 at a grid K by construction, and
# quadrature rounding must not move their K up one grid step.
_MODULAR_TIE_BAND = 8 * math.ulp(1.0)


def _first_admissible(
    n: int, ok: Callable[[int], bool], guess: Optional[int] = None
) -> Optional[int]:
    """Smallest index ``i < n`` with ``ok(i)``, for ``ok`` monotone (false
    then true); ``None`` when even the last index fails.

    Without a guess it probes the last index, then the first, then bisects.
    A guess ``g < n`` is probed first, with ``g - 1``: when they bracket the
    transition ``g`` is returned after at most two probes, and otherwise
    the bisection runs on the side they leave open.  A guess at or past
    ``n`` is the unguessed search.  The result is decided by probes alone,
    so a guess changes the probe count, never the index.
    """
    lo, hi = -1, None  # every index <= lo fails; ok(hi) holds once hi is set
    if guess is not None and guess < n:
        if ok(guess):
            if guess == 0 or not ok(guess - 1):
                return guess
            hi = guess - 1
        else:
            lo = guess
    if hi is None:
        if lo == n - 1 or not ok(n - 1):
            return None
        hi = n - 1
    if lo < 0:
        if ok(0):
            return 0
        lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def default_k_grid(lo: float = 1e-4, hi: float = 1e4, per_decade: int = 25) -> np.ndarray:
    n = int(round(per_decade * math.log10(hi / lo))) + 1
    return np.geomspace(lo, hi, n)


def _search_grid(name: str, grid, default: np.ndarray) -> np.ndarray:
    """``grid`` as floats (``default`` when None).  A search over an empty,
    non-finite or nonpositive grid would return a value that means nothing,
    so such a grid is a ``ValueError``."""
    values = default if grid is None else np.asarray(grid, dtype=float)
    if not (values.ndim == 1 and values.size and np.all(np.isfinite(values) & (values > 0))):
        raise ValueError(f"{name} must be a nonempty 1-d array of finite positive numbers")
    return values


@dataclass(frozen=True)
class EmbeddingResult:
    family_constant: float
    per_member: tuple            # (label, K) pairs, K = inf if none works
    trend: str
    grid_note: str

    @property
    def finite(self) -> bool:
        return math.isfinite(self.family_constant) and self.trend == "bounded"


def embedding_constant(
    mu: UpperHalfPlaneMeasure,
    phi2: GrowthFunction,
    family: Sequence[NormedMember],
    spec: QuadratureSpec = DEFAULT_SPEC,
    k_grid: Optional[np.ndarray] = None,
) -> EmbeddingResult:
    """Per member, the smallest grid ``K`` with
    ``int phi2(|f|/(K ||f||)) dmu <= 1``; the family maximum and the growth
    trend of ``K`` across the member ladder.

    The integral is nonincreasing in ``K``, so the grid search is a
    bisection over indices.  For a power ``phi2 = c t^p`` the modular is
    homogeneous, ``m(K ||f||) = K^-p m(||f||)``, so one modular per member
    predicts ``K = m(||f||)^(1/p)``; the search starts at the first grid
    point at or above it and confirms that index with the real integral
    there and one step below (three modulars per member instead of about
    ten).  The prediction only seeds the search: the index is decided by
    the probes, as in the bisection.  A modular up to 8 ulps above 1
    (``_MODULAR_TIE_BAND``) counts as ``<= 1``, so a member whose modular is
    exactly 1 at a grid ``K`` keeps that ``K`` under quadrature rounding.  A
    member with no admissible grid ``K`` (including detected divergence at
    every ``K``) reports ``inf``.
    """
    ks = _search_grid("k_grid", k_grid, default_k_grid())
    per_member: list[tuple[str, float]] = []
    heights: list[float] = []
    k_values: list[float] = []

    for member in family:
        if member.source_norm <= 0:
            raise ValueError(f"member {member.label} has nonpositive source norm")

        def ok(i: int) -> bool:
            val = modular_halfplane(
                member.f, phi2, mu, spec, scale=ks[i] * member.source_norm
            )
            return val <= 1.0 + _MODULAR_TIE_BAND

        guess = None
        if isinstance(phi2, Power):
            m1 = modular_halfplane(member.f, phi2, mu, spec, scale=member.source_norm)
            if math.isfinite(m1):
                guess = int(np.searchsorted(ks, m1 ** (1.0 / phi2.p), side="left"))
        i = _first_admissible(len(ks), ok, guess)
        k = math.inf if i is None else float(ks[i])
        per_member.append((member.label, k))
        heights.append(member.scale_y)
        k_values.append(k)

    arr = np.array(k_values)
    family_constant = float(np.max(arr)) if arr.size else 0.0
    if not np.all(np.isfinite(arr)):
        trend = "unbounded_member"
    else:
        hs = np.array(heights)
        order = np.argsort(hs)
        trend = _edge_trend(hs[order], arr[order])
    note = f"geometric K grid [{ks[0]:g}, {ks[-1]:g}], {len(ks)} points"
    return EmbeddingResult(family_constant, tuple(per_member), trend, note)


# ---------------------------------------------------------------------------
# The equivalence verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    mode: str
    s: float
    alpha: Optional[float]
    box: BoxSweep
    kernel: KernelSweep
    embedding: Optional[EmbeddingResult]
    verdicts: dict
    coherent: bool
    carleson: Optional[bool]
    kernel_box_ratio: Optional[float]
    warnings: tuple
    provenance: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "s": self.s,
            "alpha": self.alpha,
            "box_constant": self.box.constant,
            "box_witness": None if self.box.witness is None else [
                self.box.witness.center_x, self.box.witness.length
            ],
            "box_trend": self.box.trend,
            "kernel_constant": self.kernel.constant,
            "kernel_witness": None if self.kernel.witness is None else [
                self.kernel.witness.real, self.kernel.witness.imag
            ],
            "kernel_trend": self.kernel.trend,
            "embedding_constant": None if self.embedding is None else self.embedding.family_constant,
            "embedding_members": None if self.embedding is None else list(
                map(list, self.embedding.per_member)
            ),
            "verdicts": dict(self.verdicts),
            "coherent": self.coherent,
            "carleson": self.carleson,
            "kernel_box_ratio": self.kernel_box_ratio,
            "warnings": list(self.warnings),
            "provenance": dict(self.provenance),
        }


def verify_equivalence(
    mu: UpperHalfPlaneMeasure,
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    mode: str = "hardy",
    alpha: float = 0.0,
    s: Optional[float] = None,
    family: Optional[Sequence[NormedMember]] = None,
    box_family: BoxFamily = BoxFamily(),
    spec: QuadratureSpec = DEFAULT_SPEC,
    check_hypotheses: bool = True,
) -> EquivalenceReport:
    """Run the box, kernel, and (in hardy/bergman modes) embedding testers
    and compare their verdicts.

    Disagreement is reported, never reconciled: ``coherent`` goes false
    and ``carleson`` stays ``None``.  In raw mode only box and kernel are
    compared.  A failed doubling/Dini check on ``phi1`` in the embedding
    modes is a warning, since the embedding direction of the theorem needs
    it while the box/kernel equivalence does not.
    """
    warnings: list[str] = []
    if mode == "hardy":
        s_eff = 1.0
        alpha_eff: Optional[float] = None
    elif mode == "bergman":
        s_eff = 2.0 + alpha
        alpha_eff = alpha
    elif mode == "raw":
        if s is None:
            raise ValueError("raw mode needs an explicit s")
        s_eff = float(s)
        alpha_eff = None
    else:
        raise ValueError(f"unknown mode {mode!r}")

    target = ComposedInverse(outer=phi2, inner=phi1)
    box = carleson_box_constant(mu, target, s_eff, adapted_box_family(mu, box_family), spec)
    kernel = kernel_testing_constant(mu, phi1, phi2, s_eff, None, spec)

    embedding: Optional[EmbeddingResult] = None
    if mode in ("hardy", "bergman"):
        if check_hypotheses:
            cls1 = classify(phi1)
            if not cls1.nabla2_passed:
                warnings.append(
                    "phi1 fails the Dini (nabla2) check; the embedding "
                    "condition is outside the theorem's hypotheses"
                )
        if family is None:
            heights = adapted_heights(mu)
            family = (
                hardy_test_family(phi1, heights, spec=spec)
                if mode == "hardy"
                else bergman_test_family(phi1, alpha, heights, spec=spec)
            )
        embedding = embedding_constant(mu, phi2, family, spec)

    verdicts = {"box": box.finite, "kernel": kernel.finite}
    if embedding is not None:
        verdicts["embedding"] = embedding.finite
    coherent = len(set(verdicts.values())) == 1
    carleson: Optional[bool] = None
    if coherent:
        carleson = bool(next(iter(verdicts.values())))
    ratio = None
    if box.finite and kernel.finite and box.constant > 0:
        ratio = kernel.constant / box.constant
    return EquivalenceReport(
        mode=mode,
        s=s_eff,
        alpha=alpha_eff,
        box=box,
        kernel=kernel,
        embedding=embedding,
        verdicts=verdicts,
        coherent=coherent,
        carleson=carleson,
        kernel_box_ratio=ratio,
        warnings=tuple(warnings),
        provenance={
            "box_family": [box_family.j_min, box_family.j_max, box_family.extent,
                           box_family.step_fraction],
            "quadrature": [spec.abs_tol, spec.rel_tol, spec.y_min],
        },
    )


# ---------------------------------------------------------------------------
# Weak-type condition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakTypeResult:
    family_constant: float
    per_member: tuple
    lambda_grid: tuple


def _mass_points(
    mu: UpperHalfPlaneMeasure, pixels: Optional[PixelGrid]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Points ``(x, y)`` and the masses they carry: the atoms of an atomic
    measure, otherwise the pixel centres (as an open x-by-y mesh) with the
    pixel masses.  Super-level masses are masked sums over them."""
    atoms = mu.atoms()
    if atoms is not None:
        return atoms.arrays()
    if pixels is None:
        pixels = PixelGrid()
    xc, yc = pixels.centers()
    return xc[:, None], yc[None, :], pixel_masses(mu, pixels)


def _abs_on(f_abs, xs: np.ndarray, ys: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """``|f|`` on the mass points (not evaluated when there are none)."""
    return f_abs(xs, ys) if masses.size else np.zeros(masses.shape)


def weak_type_constant(
    mu: UpperHalfPlaneMeasure,
    phi2: GrowthFunction,
    family: Sequence[NormedMember],
    lambda_grid: Optional[np.ndarray] = None,
    c_grid: Optional[np.ndarray] = None,
    pixels: Optional[PixelGrid] = None,
) -> WeakTypeResult:
    """Smallest grid ``C`` with
    ``sup_lambda phi2(lambda) * mu({|f| > C lambda ||f||}) <= 1`` for every
    family member; the normalizer is whatever norm the family carries
    (nontangential for the weak Hardy condition).

    Super-level masses are exact for atoms and pixel sums otherwise; the
    pixel route matches the one used by the strong-side modular, so the
    Chebyshev domination between the two constants survives discretization.
    The points and masses are computed once per call and ``|f|`` on them
    once per member; each ``(C, lambda)`` probe is then a masked sum.  The
    ``C`` grid is bisected without a seed.
    """
    lams = _search_grid("lambda_grid", lambda_grid, np.geomspace(1e-3, 1e3, 25))
    cs = _search_grid("c_grid", c_grid, default_k_grid())
    xs, ys, masses = _mass_points(mu, pixels)
    per_member: list[tuple[str, float]] = []
    for member in family:
        f_abs = member.f.abs_value if hasattr(member.f, "abs_value") else member.f
        norm = member.source_norm
        vals = _abs_on(f_abs, xs, ys, masses)

        def ok(i: int) -> bool:
            c = cs[i]
            for lam in lams:
                mass = float(masses[vals > c * lam * norm].sum())
                if phi2(lam) * mass > 1.0:
                    return False
            return True

        i = _first_admissible(len(cs), ok)
        per_member.append((member.label, math.inf if i is None else float(cs[i])))
    vals = np.array([v for _, v in per_member])
    fam = float(np.max(vals)) if vals.size else 0.0
    return WeakTypeResult(fam, tuple(per_member), tuple(lams))


# ---------------------------------------------------------------------------
# Level-set comparisons
# ---------------------------------------------------------------------------

def _phi_tilde(phi: GrowthFunction, t: float) -> float:
    if t <= 0:
        return 0.0
    return 1.0 / float(phi(1.0 / t))


@dataclass(frozen=True)
class LevelSetReport:
    rows: tuple       # (lambda, mu side, comparison side, ratio)
    max_ratio: float


def levelset_comparison_hardy(
    mu: UpperHalfPlaneMeasure,
    phi: GrowthFunction,
    f_abs: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lambda_grid: Sequence[float],
    pixels: Optional[PixelGrid] = None,
    x_window: float = 64.0,
    n_cells: int = 4096,
    cone: tuple[float, float] = (1e-3, 1e3),
) -> LevelSetReport:
    """Measure of ``{|f| > lam}`` under ``mu`` against
    ``1/phi(1/|{f* > lam}|)`` with the nontangential maximal function
    sampled on a line grid; reports the per-level ratios."""
    edges = np.linspace(-x_window, x_window, n_cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dx = edges[1] - edges[0]
    star = nontangential_maximal(f_abs, centers, y_range=cone)
    xs, ys, masses = _mass_points(mu, pixels)
    vals = _abs_on(f_abs, xs, ys, masses)
    rows = []
    worst = 0.0
    for lam in lambda_grid:
        left = float(masses[vals > lam].sum())
        level_len = dx * float(np.count_nonzero(star > lam))
        right = _phi_tilde(phi, level_len)
        ratio = left / right if right > 0 else (math.inf if left > 0 else 0.0)
        rows.append((float(lam), left, right, ratio))
        worst = max(worst, ratio if math.isfinite(ratio) else math.inf)
    return LevelSetReport(tuple(rows), worst)


def levelset_comparison_bergman(
    mu: UpperHalfPlaneMeasure,
    phi: GrowthFunction,
    alpha: float,
    f,
    lambda_grid: Sequence[float],
    j_min: int = -6,
    j_max: int = 8,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> LevelSetReport:
    """Same comparison through the weighted dyadic level sets: the level
    set is a disjoint union of boxes, so both sides are exact sums."""
    rows = []
    worst = 0.0
    for lam in lambda_grid:
        intervals = level_sets(f, alpha, float(lam), j_min, j_max)
        left = 0.0
        volume = 0.0
        for a, b in intervals:
            box = CarlesonBox(0.5 * (a + b), b - a)
            left += box_mass(mu, box, spec)
            volume += (b - a) ** (2.0 + alpha) / (1.0 + alpha)
        right = _phi_tilde(phi, volume)
        ratio = left / right if right > 0 else (math.inf if left > 0 else 0.0)
        rows.append((float(lam), left, right, ratio))
        worst = max(worst, ratio if math.isfinite(ratio) else math.inf)
    return LevelSetReport(tuple(rows), worst)
