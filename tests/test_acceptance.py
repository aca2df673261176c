"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run with ``pytest -s`` to see them inline).
"""

import math
import time

import numpy as np
import pytest

from orliczhp.corpus import random_atoms, random_step_1d
from orliczhp.growth import Power, PowerLog, classify, conjugate, derived_pair
from orliczhp.integrals import beta, integrate_line, line_kernel_value
from orliczhp.maximal import maximal_suite
from orliczhp.measure import (
    AtomicMeasure,
    BoxFamily,
    CarlesonBox,
    DensityMeasure,
    PixelGrid,
    RestrictedMeasure,
    Verdict,
    WeightedVolume,
    box_mass,
    carleson_box_constant,
)
from orliczhp.spaces import (
    BergmanKernel,
    HardyKernel,
    bergman_norm,
    hardy_norm,
    luxembourg_step_line,
)
from orliczhp.carleson import (
    bergman_test_family,
    embedding_constant,
    hardy_test_family,
    verify_equivalence,
    weak_hardy_family,
    weak_type_constant,
)
from orliczhp.multipliers import (
    POWER_LATTICE_P,
    POWER_LATTICE_Q,
    multiplier_space,
    omega_profile,
    section6_annulus_bound,
    section6_measure,
)

E2 = math.e ** 2


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n:02d} PASS: {text}")


def test_01_beta_oracle_agreement():
    t0 = time.monotonic()
    worst = 0.0
    for alpha in (2.0, 3.0, 4.0):
        for y in (0.5, 1.0, 2.0):
            got = integrate_line(lambda x, a=alpha, y=y: (x * x + y * y) ** (-a / 2)).value
            want = line_kernel_value(alpha, y)
            worst = max(worst, abs(got - want) / want)
            assert got == pytest.approx(want, rel=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed <= 5.0
    report(1, f"line-kernel quadrature vs closed form, worst rel err "
              f"{worst:.2e}, {elapsed:.2f}s")


def test_02_box_volume():
    worst_closed = worst_quad = 0.0
    for alpha in (0.0, 1.0, 2.5):
        for length in (0.5, 1.0, 2.0):
            want = length ** (alpha + 2) / (1 + alpha)
            closed = box_mass(WeightedVolume(alpha), CarlesonBox(0.3, length))
            worst_closed = max(worst_closed, abs(closed - want) / want)
            assert closed == pytest.approx(want, rel=1e-12)
            quad_mu = DensityMeasure(lambda y, a=alpha: np.asarray(y, float) ** a, "y^a")
            quad = box_mass(quad_mu, CarlesonBox(0.3, length))
            worst_quad = max(worst_quad, abs(quad - want) / want)
            assert quad == pytest.approx(want, rel=1e-6)
    report(2, f"box volumes: closed form {worst_closed:.1e}, quadrature "
              f"{worst_quad:.1e} worst rel err")


def test_03_kernel_norm_bounds():
    phi = Power(2)
    hardy_worst = 0.0
    for z0 in (0.5j, 1j, 1 + 2j):
        hn = hardy_norm(HardyKernel(z0, phi), phi)
        hardy_worst = max(hardy_worst, hn.modular_sup)
        assert hn.modular_sup <= math.pi + 1e-3
    bergman_vals = []
    for alpha in (0.0, 1.0):
        bound = beta(0.5, (3 + 2 * alpha) / 2) * beta(1 + alpha, 2 + alpha)
        for z0 in (0.5j, 1j, 1 + 2j):
            bn = bergman_norm(BergmanKernel(z0, phi, alpha), phi, alpha)
            bergman_vals.append((alpha, bn.modular, bound))
            assert bn.modular <= bound + 1e-3
    report(3, f"kernel bounds: worst line modular {hardy_worst:.4f} <= pi; "
              f"half-plane modulars under their beta bounds for alpha in (0, 1)")


def test_04_maximal_suite():
    t0 = time.monotonic()
    n_functions = 800
    onethird_bad, weak_bad, compare_bad = maximal_suite(
        20260809, n_functions=n_functions, n_probes=100, n_levels=20, alphas=(0.0, 1.0)
    )

    elapsed = time.monotonic() - t0
    assert onethird_bad == 0
    assert weak_bad == 0
    assert compare_bad == 0
    assert elapsed <= 60.0
    report(4, f"maximal suite on {n_functions} + {n_functions // 4} random step functions: "
              f"0 violations (factor 6 / constant 2 / factor 68), {elapsed:.1f}s")


def _cloud(seed: int) -> AtomicMeasure:
    return random_atoms(np.random.default_rng(3200 + seed))


def test_05_equivalence_coherence():
    pairs = [(p, q) for p in (1.0, 2.0) for q in (2.0, 3.0, 4.0)]
    modes = [("hardy", 0.0, 1.0), ("bergman", 0.0, 2.0), ("bergman", 1.0, 3.0)]
    family_cache: dict = {}
    # matched-volume kernel/box ratios per scale exponent; the equivalence
    # constant carries a structural factor growing with s*q/p, so the
    # bracket is taken per fixed s over the hypothesis-satisfying pairs
    ratios_by_s: dict = {}
    cases = incoherent = 0
    cloud_seed = 0

    for p, q in pairs:
        phi1, phi2 = Power(p), Power(q)
        nabla2_ok = p > 1.0
        for mode, alpha, s in modes:
            key = (p, q, mode, alpha)

            def family_for():
                if key not in family_cache:
                    family_cache[key] = (
                        hardy_test_family(phi1) if mode == "hardy"
                        else bergman_test_family(phi1, alpha)
                    )
                return family_cache[key]

            measures: list = []
            gamma = s * q / p - 2.0
            if gamma > -0.99:
                # matched weighted volume: box exponent vanishes
                measures.append((WeightedVolume(gamma), True, True, True))
            mismatched = abs(2.0 - s * q / p) > 1e-9
            measures.append((WeightedVolume(0.0), not mismatched, True, False))
            for _ in range(2):
                measures.append((_cloud(cloud_seed % 10), True, False, False))
                cloud_seed += 1

            for mu, expect_carleson, is_volume, is_matched in measures:
                fam = family_for() if is_volume else None
                rep = verify_equivalence(
                    mu, phi1, phi2, mode=mode, alpha=alpha,
                    family=fam, box_family=BoxFamily(-5, 5),
                )
                cases += 1
                assert rep.verdicts["box"] == rep.verdicts["kernel"], (p, q, mode, mu)
                if nabla2_ok and "embedding" in rep.verdicts:
                    assert rep.verdicts["embedding"] == rep.verdicts["box"], (p, q, mode, mu)
                    if not rep.coherent:
                        incoherent += 1
                if rep.verdicts["box"]:
                    assert rep.verdicts["box"] == expect_carleson or not is_volume
                if is_matched and nabla2_ok and rep.kernel_box_ratio is not None:
                    ratios_by_s.setdefault(s, []).append(rep.kernel_box_ratio)

    # both section-6 measures, hardy mode with phi1 = t^2
    for phi2, expect in ((Power(4), True), (PowerLog(2, 1, E2), False)):
        mu, flagged = section6_measure(Power(2), phi2)
        assert flagged is expect
        rep = verify_equivalence(mu, Power(2), phi2, mode="hardy",
                                 box_family=BoxFamily(-5, 5))
        cases += 1
        assert rep.coherent and rep.carleson is expect

    assert incoherent == 0
    brackets = {
        s: max(vals) / min(vals) for s, vals in sorted(ratios_by_s.items())
    }
    for s, width in brackets.items():
        assert width <= 1e3, (s, width)
    pretty = ", ".join(f"s={s:g}: {w:.3g}" for s, w in brackets.items())
    report(5, f"{cases} equivalence cases coherent; kernel/box ratio bracket "
              f"widths per scale exponent {pretty} (all <= 1e3)")


def test_06_section6_counterexample():
    # divergent variant: the cutoff-halving rule must flag every box
    mu_bad, expected_bad = section6_measure(Power(2), PowerLog(2, 1, E2))
    assert expected_bad is False
    assert box_mass(mu_bad, CarlesonBox(0.0, 1.0)) == math.inf
    comp_bad = derived_pair(Power(2), PowerLog(2, 1, E2))[0]
    sweep_bad = carleson_box_constant(mu_bad, comp_bad, 1.0, BoxFamily(-5, 5))
    assert sweep_bad.verdict == Verdict("divergent")

    # power variant: Carleson, with the family constant matching the
    # annulus-sum bound within its factor 4
    mu_good, expected_good = section6_measure(Power(2), Power(4))
    assert expected_good is True
    comp_good = derived_pair(Power(2), Power(4))[0]
    sweep_good = carleson_box_constant(mu_good, comp_good, 1.0, BoxFamily(-5, 5))
    assert sweep_good.verdict.finite
    bound_constant = max(
        section6_annulus_bound(comp_good, L) * float(comp_good(1.0 / L))
        for L, _ in sweep_good.ladder
    )
    assert sweep_good.constant <= bound_constant * (1 + 1e-9)
    assert bound_constant <= 4.0 * sweep_good.constant * (1 + 1e-9)
    report(6, f"counterexample flagged divergent; power variant constant "
              f"{sweep_good.constant:.3f} vs annulus bound {bound_constant:.3f} "
              f"(factor {bound_constant / sweep_good.constant:.2f} <= 4)")


def test_07_multiplier_trichotomy():
    cls_cache: dict = {}

    def cls(phi):
        key = repr(phi)
        if key not in cls_cache:
            cls_cache[key] = classify(phi)
        return cls_cache[key]

    correct = total = 0
    for alpha in (0.0, 1.0):
        for p in POWER_LATTICE_P:
            for q in POWER_LATTICE_Q:
                e = 1.0 / p - (2.0 + alpha) / q
                expect = ("H_infinity" if abs(e) < 1e-12
                          else "zero_space" if e > 0 else "H_infinity_omega")
                prof = omega_profile(Power(p), Power(q), "hardy_to_bergman", alpha)
                comp = derived_pair(Power(p), Power(q))[0]
                verdict = multiplier_space(prof, cls(Power(p)), cls(Power(q)), cls(comp))
                total += 1
                correct += verdict.space == expect
                assert verdict.space == expect, (p, q, alpha)
                # hypothesis table: the growth checks pass for every power pair
                assert verdict.hypothesis_table["phi1_nabla2"]
                assert verdict.hypothesis_table["phi2_tilde"]
    assert total == 50 and correct == 50

    berg_correct = berg_total = 0
    for alpha in (0.0, 1.0):
        for beta_w in (0.0, 1.0):
            for p in POWER_LATTICE_P:
                for q in POWER_LATTICE_Q:
                    e = (2.0 + alpha) / p - (2.0 + beta_w) / q
                    expect = ("H_infinity" if abs(e) < 1e-12
                              else "zero_space" if e > 0 else "H_infinity_omega")
                    prof = omega_profile(Power(p), Power(q), "bergman_to_bergman",
                                         alpha, beta_w)
                    comp = derived_pair(Power(p), Power(q))[0]
                    verdict = multiplier_space(prof, cls(Power(p)), cls(Power(q)), cls(comp))
                    berg_total += 1
                    berg_correct += verdict.space == expect
                    assert verdict.space == expect, (p, q, alpha, beta_w)
    report(7, f"trichotomy {correct}/{total} correct on the height-one lattice "
              f"and {berg_correct}/{berg_total} on the two-weight lattice; "
              f"hypothesis checks all pass")


def test_08_luxembourg_lp_agreement():
    rng = np.random.default_rng(88)
    worst = 0.0
    worst_hom = 0.0
    for _ in range(20):
        f = random_step_1d(rng)
        if not np.any(f.values):
            continue
        widths = np.diff(f.edges)
        for p in (1.0, 2.0, 3.0):
            direct = float(np.sum(np.abs(f.values) ** p * widths)) ** (1.0 / p)
            lux = luxembourg_step_line(f, Power(p), tol=1e-12)
            worst = max(worst, abs(lux - direct) / direct)
            assert lux == pytest.approx(direct, rel=1e-8)
            base = luxembourg_step_line(f, Power(p), tol=1e-13)
            for c in (0.5, 2.0, 10.0):
                scaled = luxembourg_step_line(f.scaled(c), Power(p), tol=1e-13)
                err = abs(scaled - c * base) / (c * base)
                worst_hom = max(worst_hom, err)
                assert err <= 1e-10
    report(8, f"Luxembourg vs direct p-norms: worst rel err {worst:.1e}; "
              f"homogeneity slack {worst_hom:.1e} (<= 1e-10)")


def test_09_conjugation():
    half_square = Power(2, scale=0.5)
    worst = 0.0
    for s in np.geomspace(1e-2, 1e2, 41):
        got = conjugate(half_square, float(s))
        want = s * s / 2.0
        worst = max(worst, abs(got - want) / want)
        assert got == pytest.approx(want, rel=0.01)
    ident = Power(1)
    for s in (0.1, 0.5, 1.0):
        assert conjugate(ident, s) == 0.0
    for s in (1.5, 2.0, 10.0):
        assert conjugate(ident, s) == math.inf
    report(9, f"conjugate of t^2/2 matches s^2/2 (worst rel err {worst:.1e}); "
              f"identity conjugate is 0 below slope one and infinite above")


def test_10_weak_below_strong():
    heights = (0.5, 1.0, 2.0)
    pixels = PixelGrid(-8.0, 8.0, 8.0, 256, 256)
    corpora = [
        AtomicMeasure((0.0,), (1.0,), (1.0,)),
        _cloud(0),
        _cloud(1),
        RestrictedMeasure(WeightedVolume(0.0), CarlesonBox(0.0, 2.0)),
        RestrictedMeasure(WeightedVolume(1.0), CarlesonBox(0.5, 1.0)),
    ]
    checked = 0
    for phi1, phi2, mode, alpha in (
        (Power(2), Power(4), "hardy", 0.0),
        (Power(2), Power(4), "bergman", 0.0),
        (Power(2), Power(3), "hardy", 0.0),
    ):
        if mode == "hardy":
            weak_fam = weak_hardy_family(phi1, heights)
            strong_fam = hardy_test_family(phi1, heights)
        else:
            weak_fam = bergman_test_family(phi1, alpha, heights)
            strong_fam = weak_fam
        for mu in corpora:
            weak = weak_type_constant(mu, phi2, weak_fam, pixels=pixels)
            strong = embedding_constant(mu, phi2, strong_fam)
            for (label, wk), (_, sk) in zip(weak.per_member, strong.per_member):
                checked += 1
                assert wk <= sk * (1 + 1e-6), (label, wk, sk, mu)
    report(10, f"weak-type constant below the embedding constant in all "
               f"{checked} member/measure cases")
