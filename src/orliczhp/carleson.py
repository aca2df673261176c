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
ladders.  The box and kernel testers each adapt their own ladder to the
measure (``measure.adapted_box_family``, ``default_sample_points``), so
callers pass a box family through unchanged, and both return one fold,
``measure._fold``, of their rows.  Each tester's call is one
``measure.Verdict``: finite, or infinite for one of four reasons, which
report bodies show as follows.

* ``divergent``: an infinite box value (a divergent mass, or a weight
  that overflows) or kernel integral; the constant is ``inf`` (and
  ``carleson-test`` reports ``divergent_mass: true``).
* ``unbounded_member``: an embedding member with no admissible grid K; its
  K and the embedding constant are ``inf``.
* ``growing_small_scale``, ``growing_large_scale``: the ladder's values grow
  toward that edge.  ``box_trend``, ``kernel_trend`` and ``carleson-test``'s
  ``trend`` name the edge, and read ``bounded`` for every other verdict.

``verdicts`` maps each tester to whether its verdict is finite, and
``coherent``, ``carleson`` and ``kernel_box_ratio`` are read off them.

For a power ``phi2 = c t^p`` the member modular is homogeneous,
``m(K ||f||) = K^-p m(||f||)``, so each member's embedding K comes from one
modular, as the Luxembourg norms of a power ``phi`` do (``spaces``).  Every
other grid constant (the embedding K of a non-power ``phi2``, the weak-type
C) is bisected over grid indices by ``_first_admissible``.  The weak-type
search computes the measure's mass points and each ``phi2(lambda)`` once per
call and ``|f|`` on the points once per member.

On a measure with atoms an atom sum is one array per sweep
(``spaces.kernel_modulars``): the kernel sweep's modulars over all base
points, and a power ``phi2``'s member modulars over the whole family, are
``|f|`` at every (kernel, atom) pair, one ``phi2`` call and one sum along
the atom axis, each row bitwise its own ``modular_halfplane``.

On a weighted volume ``y^gamma dx dy`` or a density every kernel and
embedding modular, under any ``phi2``, is a 1-D height integral of the
kernel's line modulars (``spaces.modular_halfplane``), never the 2-D rule;
for a power ``phi2`` on a volume it is a product of two beta functions.
Where the x-integral (``s q <= 1/2``) or the height integral
(``2 s q - 2 - gamma <= 0``) diverges the modular is ``inf``: the kernel
verdict is ``divergent`` at the first ladder height, and every member is
unbounded.  On a density the density's divergence probe decides ``inf``.

The test families' norms do not depend on the measure: a Hardy member's
line modulars are ``GrowthFunction.kernel_lines``, and a Bergman member's
modular a height integral on the weight's volume, both arithmetic for a
power ``phi1``.  Of ``classify(phi1)`` the embedding modes run only the
Dini check (``growth._dini``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .growth import ComposedInverse, GrowthFunction, Power, _dini
from .integrals import DEFAULT_SPEC, QuadratureSpec
from .maximal import StepFunction1D
from .measure import (
    BoxFamily,
    PixelGrid,
    Sweep,
    UpperHalfPlaneMeasure,
    Verdict,
    _fold,
    _ladder_verdict,
    carleson_box_constant,
    pixel_masses,
)
from .spaces import (
    BergmanKernel,
    CarlesonKernel,
    HardyKernel,
    _decade_grid,
    bergman_norm,
    hardy_norm,
    kernel_modulars,
    luxembourg_step_line,
    modular_halfplane,
)

__all__ = [
    "kernel_testing_constant",
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
    "default_k_grid",
]


def default_sample_points(mu: UpperHalfPlaneMeasure) -> list[tuple[Optional[float], complex]]:
    """``(height, base point)`` pairs: a dyadic ladder, then measure-adapted
    extras with no height.

    The ladder (fixed x, heights ``2^k`` for ``k`` in -8..8, extended by
    ``adapted_heights``) is what the growth-trend test reads; extras (each
    atom, and the point above it at twice its height) only enter the supremum.
    """
    x0 = 0.0 if mu.region is None else mu.region.center_x
    heights = adapted_heights(mu, [2.0 ** k for k in range(-8, 9)])
    sample: list[tuple[Optional[float], complex]] = [(h, complex(x0, h)) for h in heights]
    atoms = mu.atoms()
    if atoms is not None:
        xs, ys, _ = atoms.arrays()
        for x, y in zip(xs, ys):
            sample += [(None, complex(x, y)), (None, complex(x, 2.0 * y))]
    return sample


def kernel_testing_constant(
    mu: UpperHalfPlaneMeasure,
    phi1: GrowthFunction,
    phi2: GrowthFunction,
    s: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> Sweep:
    """Supremum of the kernel integral over ``default_sample_points(mu)``,
    witnessed by a base point, with its ``(height, value)`` ladder.  An
    infinite integral (a density probe's divergence) makes the verdict
    ``divergent``; otherwise the ladder decides it."""
    points = default_sample_points(mu)
    kernels = (CarlesonKernel(z, phi1, s) for _, z in points)
    return _fold(
        (h, value, z) for (h, z), value in zip(points, kernel_modulars(kernels, phi2, mu, spec))
    )


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
    """Hardy-kernel family normalized by the Luxembourg Hardy norm, one
    ``hardy_norm`` per member; in closed form for a power ``phi1``."""
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
    """Bergman-kernel family normalized by the Bergman-Orlicz Luxembourg
    norm against ``y^alpha``, one ``bergman_norm`` per member.  For a power
    ``phi1 = c t^p`` the norm is arithmetic and, up to rounding, the same
    for every member: the dilation ``w = x0 + y0 w'`` carries the member at
    ``x0 + i y0`` onto the one at ``i``, and the amplitude
    ``(c y0^s)^(-1/p)`` absorbs the measure's factor ``y0^s``."""
    members = []
    for y0 in heights:
        f = BergmanKernel(complex(0.0, y0), phi1, alpha)
        norm = bergman_norm(f, phi1, alpha, spec=spec).luxembourg
        members.append(NormedMember(f"bergman_kernel(y0={y0:g})", f, norm, y0))
    return members


def weak_hardy_family(
    phi1: GrowthFunction,
    heights: Sequence[float] = DEFAULT_KERNEL_HEIGHTS,
) -> list[NormedMember]:
    """Hardy kernels normalized by the Luxembourg norm of their nontangential
    maximal function (the weak-type normalizer): the exact cone supremum
    ``CarlesonKernel.cone_sup`` at the centres of 2048 equal cells of
    ``[-64, 64]``."""
    members = []
    edges = np.linspace(-64.0, 64.0, 2049)
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


def _first_admissible(n: int, ok: Callable[[int], bool]) -> Optional[int]:
    """Smallest index ``i < n`` with ``ok(i)``, for ``ok`` monotone (false
    then true); ``None`` when even the last index fails.  It probes the last
    index, then the first, then bisects.  The embedding search for a
    non-power ``phi2`` and the weak-type search share it."""
    if not ok(n - 1):
        return None
    if ok(0):
        return 0
    lo, hi = 0, n - 1  # ok(lo) fails, ok(hi) holds
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def default_k_grid() -> np.ndarray:
    """The embedding and weak-type search grid: 1e-4 to 1e4, 25 per decade."""
    return _decade_grid(1e-4, 1e4, 25)


@dataclass(frozen=True)
class EmbeddingResult:
    family_constant: float
    per_member: tuple            # (label, K) pairs, K = inf if none works
    verdict: Verdict


def embedding_constant(
    mu: UpperHalfPlaneMeasure,
    phi2: GrowthFunction,
    family: Sequence[NormedMember],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> EmbeddingResult:
    """Per member, the smallest grid ``K`` with
    ``int phi2(|f|/(K ||f||)) dmu <= 1``; the family maximum and the
    verdict: ``unbounded_member`` when some member has no admissible ``K``,
    otherwise the growth of ``K`` across the member ladder decides it.

    For a power ``phi2 = c t^p`` the modular is homogeneous,
    ``m(K ||f||) = K^-p m(||f||)``, so ``K`` is the first grid point with
    ``m(||f||) / K^p <= 1``, read off one modular per member.  A divergent
    modular (``inf``) fits no ``K``, whatever the scale.  Any other
    ``phi2`` is bisected over grid indices (``_first_admissible``) with the
    modular at each probed ``K``, which is nonincreasing in ``K``.  A
    modular up to 8 ulps above 1 (``_MODULAR_TIE_BAND``) counts as ``<= 1``,
    so a member whose modular is exactly 1 at a grid ``K`` keeps that ``K``
    under quadrature rounding.  A member with no admissible grid ``K``
    reports ``inf``.
    """
    ks = default_k_grid()
    for member in family:
        if member.source_norm <= 0:
            raise ValueError(f"member {member.label} has nonpositive source norm")

    if isinstance(phi2, Power):
        modulars = kernel_modulars(
            [member.f for member in family], phi2, mu, spec,
            scales=[member.source_norm for member in family],
        )
        ks_p = ks ** phi2.p
        fits = [np.flatnonzero(m1 / ks_p <= 1.0 + _MODULAR_TIE_BAND) for m1 in modulars]
        found = [int(fit[0]) if fit.size else None for fit in fits]
    else:
        def first_fit(member: NormedMember) -> Optional[int]:
            def ok(i: int) -> bool:
                val = modular_halfplane(
                    member.f, phi2, mu, spec, scale=ks[i] * member.source_norm
                )
                return val <= 1.0 + _MODULAR_TIE_BAND

            return _first_admissible(len(ks), ok)

        found = [first_fit(member) for member in family]
    per_member = [(member.label, math.inf if i is None else float(ks[i]))
                  for member, i in zip(family, found)]

    k_found = np.array([k for _, k in per_member])
    heights = np.array([member.scale_y for member in family])
    order = np.argsort(heights)
    verdict = (_ladder_verdict(heights[order], k_found[order])
               if np.all(np.isfinite(k_found)) else Verdict("unbounded_member"))
    family_constant = float(np.max(k_found)) if k_found.size else 0.0
    return EmbeddingResult(family_constant, tuple(per_member), verdict)


# ---------------------------------------------------------------------------
# The equivalence verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    mode: str
    s: float
    alpha: Optional[float]
    box: Sweep
    kernel: Sweep
    embedding: Optional[EmbeddingResult]
    warnings: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def verdicts(self) -> dict:
        """Whether each tester that ran found its condition finite."""
        testers = {"box": self.box, "kernel": self.kernel, "embedding": self.embedding}
        return {name: t.verdict.finite for name, t in testers.items() if t is not None}

    @property
    def coherent(self) -> bool:
        return len(set(self.verdicts.values())) == 1

    @property
    def carleson(self) -> Optional[bool]:
        """The testers' common call, ``None`` when they disagree."""
        return next(iter(self.verdicts.values())) if self.coherent else None

    @property
    def kernel_box_ratio(self) -> Optional[float]:
        ok = self.box.verdict.finite and self.kernel.verdict.finite and self.box.constant > 0
        return self.kernel.constant / self.box.constant if ok else None

    def as_dict(self) -> dict:
        return {
            "mode": self.mode,
            "s": self.s,
            "alpha": self.alpha,
            "box_constant": self.box.constant,
            "box_witness": None if self.box.witness is None else [
                self.box.witness.center_x, self.box.witness.length
            ],
            "box_trend": self.box.verdict.trend,
            "kernel_constant": self.kernel.constant,
            "kernel_witness": None if self.kernel.witness is None else [
                self.kernel.witness.real, self.kernel.witness.imag
            ],
            "kernel_trend": self.kernel.verdict.trend,
            "embedding_constant": None if self.embedding is None else self.embedding.family_constant,
            "embedding_members": None if self.embedding is None else list(
                map(list, self.embedding.per_member)
            ),
            "verdicts": self.verdicts,
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
) -> EquivalenceReport:
    """Run the box, kernel, and (in hardy/bergman modes) embedding testers
    and compare their verdicts.

    Disagreement is reported, never reconciled: ``coherent`` goes false
    and ``carleson`` stays ``None``.  In raw mode only box and kernel are
    compared.  The embedding modes run the Dini (nabla2) check of
    ``classify`` on ``phi1``, and nothing else of it; a failed check is a
    warning, since the embedding direction of the theorem needs it while
    the box/kernel equivalence does not.
    """
    warnings: list[str] = []
    if mode not in ("hardy", "bergman", "raw"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "raw" and s is None:
        raise ValueError("raw mode needs an explicit s")
    s_eff = 1.0 if mode == "hardy" else 2.0 + alpha if mode == "bergman" else float(s)
    alpha_eff = alpha if mode == "bergman" else None

    target = ComposedInverse(outer=phi2, inner=phi1)
    box = carleson_box_constant(mu, target, s_eff, box_family, spec)
    kernel = kernel_testing_constant(mu, phi1, phi2, s_eff, spec)

    embedding: Optional[EmbeddingResult] = None
    if mode in ("hardy", "bergman"):
        if not _dini(phi1).passed:
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

    return EquivalenceReport(
        mode=mode,
        s=s_eff,
        alpha=alpha_eff,
        box=box,
        kernel=kernel,
        embedding=embedding,
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


def weak_type_constant(
    mu: UpperHalfPlaneMeasure,
    phi2: GrowthFunction,
    family: Sequence[NormedMember],
    lambda_grid: Optional[np.ndarray] = None,
    pixels: Optional[PixelGrid] = None,
) -> WeakTypeResult:
    """Smallest grid ``C`` with
    ``sup_lambda phi2(lambda) * mu({|f| > C lambda ||f||}) <= 1`` for every
    family member; the normalizer is whatever norm the family carries
    (nontangential for the weak Hardy condition).

    Super-level masses are exact for atoms and pixel sums otherwise; the
    pixel route matches the one used by the strong-side modular, so the
    Chebyshev domination between the two constants survives discretization.
    The points and masses and each ``phi2(lambda)`` are computed once per
    call and ``|f|`` on the points once per member; each ``(C, lambda)``
    probe is then a masked sum.  The ``C`` grid is bisected.  A constant
    over an empty, non-finite or nonpositive ``lambda_grid`` means nothing:
    ``ValueError``.
    """
    lams = (np.geomspace(1e-3, 1e3, 25) if lambda_grid is None
            else np.asarray(lambda_grid, dtype=float))
    if not (lams.ndim == 1 and lams.size and np.all(np.isfinite(lams) & (lams > 0))):
        raise ValueError("lambda_grid must be a nonempty 1-d array of finite positive numbers")
    cs = default_k_grid()
    xs, ys, masses = _mass_points(mu, pixels)
    weights = [phi2(lam) for lam in lams]  # one scalar call per lambda
    per_member: list[tuple[str, float]] = []
    for member in family:
        norm = member.source_norm
        # |f| on the mass points, not evaluated when there are none
        vals = member.f.abs_value(xs, ys) if masses.size else np.zeros(masses.shape)

        def ok(i: int) -> bool:
            c = cs[i]
            for lam, weight in zip(lams, weights):
                mass = float(masses[vals > c * lam * norm].sum())
                if weight * mass > 1.0:
                    return False
            return True

        i = _first_admissible(len(cs), ok)
        per_member.append((member.label, math.inf if i is None else float(cs[i])))
    vals = np.array([v for _, v in per_member])
    fam = float(np.max(vals)) if vals.size else 0.0
    return WeakTypeResult(fam, tuple(per_member))
