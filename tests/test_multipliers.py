import math

import numpy as np
import pytest

from orliczhp.growth import Power, PowerLog, classify, derived_pair
from orliczhp.measure import BoxFamily, CarlesonBox, box_mass, carleson_box_constant
from orliczhp.multipliers import (
    POWER_LATTICE_P,
    POWER_LATTICE_Q,
    embed_check,
    multiplier_space,
    omega_profile,
    section6_annulus_bound,
    section6_measure,
)

E2 = math.e ** 2

_CLS_CACHE = {}


def cls(phi):
    key = repr(phi)
    if key not in _CLS_CACHE:
        _CLS_CACHE[key] = classify(phi)
    return _CLS_CACHE[key]


def power_verdict(p, q, variant, alpha, beta=None):
    prof = omega_profile(Power(p), Power(q), variant, alpha, beta)
    composed = derived_pair(Power(p), Power(q))[0]
    return prof, multiplier_space(prof, cls(Power(p)), cls(Power(q)), cls(composed))


class TestOmegaProfile:
    def test_flat_profile(self):
        prof = omega_profile(Power(1), Power(3), "hardy_to_bergman", alpha=1.0)
        assert prof.classification == "equivalent_to_one"
        assert prof.bracket[0] == pytest.approx(1.0, rel=1e-9)

    def test_vanishing_profile(self):
        # exponent 1 - 3/4 = 1/4 > 0
        prof = omega_profile(Power(1), Power(4), "hardy_to_bergman", alpha=1.0)
        assert prof.classification == "nondecreasing_vanishing"

    def test_nonincreasing_profile(self):
        # exponent 1/2 - 1 = -1/2 < 0
        prof = omega_profile(Power(2), Power(3), "hardy_to_bergman", alpha=1.0)
        assert prof.classification == "nonincreasing"

    def test_power_exponent_formula(self):
        # omega(t) = t^(1/p - (2+alpha)/q) exactly for powers
        p, q, alpha = 2.0, 5.0, 1.0
        prof = omega_profile(Power(p), Power(q), "hardy_to_bergman", alpha)
        ts = np.asarray(prof.ts)
        want = ts ** (1.0 / p - (2.0 + alpha) / q)
        np.testing.assert_allclose(np.asarray(prof.values), want, rtol=1e-12)

    def test_classification_consistent_with_samples(self):
        # no classification may contradict a sampled pair
        for (p, q, alpha) in ((1.0, 3.0, 1.0), (1.0, 4.0, 1.0), (2.0, 3.0, 1.0)):
            prof = omega_profile(Power(p), Power(q), "hardy_to_bergman", alpha)
            vals = np.asarray(prof.values)
            if prof.classification == "nonincreasing":
                assert np.all(np.diff(vals) <= 1e-9 * vals[:-1])
            if prof.classification == "nondecreasing_vanishing":
                assert np.all(np.diff(vals) >= -1e-9 * vals[:-1])


class TestEmbedCheck:
    def test_matched_powers_hold(self):
        res = embed_check(Power(1), Power(3), "hardy_to_bergman", alpha=1.0)
        assert res.holds
        assert res.constant == pytest.approx(1.0, rel=1e-9)

    def test_mismatched_powers_fail_small_t(self):
        res = embed_check(Power(1), Power(2), "hardy_to_bergman", alpha=1.0)
        assert not res.holds
        assert res.edge == "small_t"

    def test_bergman_variant_matched(self):
        # (2+alpha)/p = (2+beta)/q
        res = embed_check(Power(2), Power(4), "bergman_to_bergman", alpha=0.0, beta=2.0)
        assert res.holds

    @pytest.mark.parametrize("variant, beta, message", [
        ("zzz", 1.0, "unknown variant"),
        ("bergman_to_bergman", None, "needs beta"),
    ])
    def test_bad_variant_rejected(self, variant, beta, message):
        with pytest.raises(ValueError, match=message):
            embed_check(Power(1), Power(3), variant, 1.0, beta)
        with pytest.raises(ValueError, match=message):
            omega_profile(Power(1), Power(3), variant, 1.0, beta)

    def test_lattice_agreement_with_exponent(self):
        for alpha in (0.0, 1.0):
            for p in POWER_LATTICE_P:
                for q in POWER_LATTICE_Q:
                    e = 1.0 / p - (2.0 + alpha) / q
                    res = embed_check(Power(p), Power(q), "hardy_to_bergman", alpha)
                    # the criterion holds iff the ratio is bounded on both
                    # sides, which for powers means exponent exactly zero
                    # (positive exponents blow up at infinity, negative at 0)
                    assert res.holds == (abs(e) < 1e-12), (p, q, alpha)


class TestTrichotomy:
    def test_flat_maps_to_bounded_analytic(self):
        _, verdict = power_verdict(2.0, 4.0, "hardy_to_bergman", 0.0)
        assert verdict.space == "H_infinity"
        assert verdict.hypothesis_table["phi1_nabla2"]

    def test_vanishing_maps_to_zero_space(self):
        _, verdict = power_verdict(1.25, 10.0, "hardy_to_bergman", 0.0)
        assert verdict.space == "zero_space"

    def test_nonincreasing_maps_to_weighted(self):
        _, verdict = power_verdict(3.0, 4.0, "hardy_to_bergman", 0.0)
        assert verdict.space == "H_infinity_omega"
        assert not verdict.failed

    def test_failed_hypothesis_named(self):
        # phi1 = identity fails the Dini check, so the flat branch is out
        prof = omega_profile(Power(1), Power(2), "hardy_to_bergman", 0.0)
        assert prof.classification == "equivalent_to_one"
        composed = derived_pair(Power(1), Power(2))[0]
        verdict = multiplier_space(prof, cls(Power(1)), cls(Power(2)), cls(composed))
        assert verdict.space == "out_of_theorem"
        assert verdict.failed == ("phi1_nabla2",)

    def test_hardy_lattice_sign_rule(self):
        for alpha in (0.0, 1.0):
            for p in POWER_LATTICE_P:
                for q in POWER_LATTICE_Q:
                    e = 1.0 / p - (2.0 + alpha) / q
                    expect = (
                        "H_infinity" if abs(e) < 1e-12
                        else "zero_space" if e > 0
                        else "H_infinity_omega"
                    )
                    _, verdict = power_verdict(p, q, "hardy_to_bergman", alpha)
                    assert verdict.space == expect, (p, q, alpha, e)

    def test_bergman_lattice_sign_rule(self):
        for alpha in (0.0, 1.0):
            for beta_w in (0.0, 1.0):
                for p in POWER_LATTICE_P:
                    for q in POWER_LATTICE_Q:
                        e = (2.0 + alpha) / p - (2.0 + beta_w) / q
                        expect = (
                            "H_infinity" if abs(e) < 1e-12
                            else "zero_space" if e > 0
                            else "H_infinity_omega"
                        )
                        _, verdict = power_verdict(p, q, "bergman_to_bergman", alpha, beta_w)
                        assert verdict.space == expect, (p, q, alpha, beta_w, e)


class TestSection6:
    def test_expected_verdicts(self):
        _, good = section6_measure(Power(2), Power(4))
        _, bad = section6_measure(Power(2), PowerLog(2, 1, E2))
        assert good is True and bad is False

    def test_verdict_matches_box_test(self):
        pairs = [
            (Power(2), Power(4)),
            (Power(2), Power(6)),
            (Power(1.5), Power(3)),
            (Power(2), PowerLog(2, 1, E2)),
        ]
        for phi1, phi2 in pairs:
            mu, expected = section6_measure(phi1, phi2)
            comp = derived_pair(phi1, phi2)[0]
            sweep = carleson_box_constant(mu, comp, 1.0, BoxFamily(-5, 5))
            assert sweep.verdict.finite == expected, (phi1, phi2)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            section6_measure(Power(2), Power(4), variant="zzz")

    def test_bergman_variant_needs_no_beta(self):
        # phi1 = t^2, phi2 = t^4 and e = 2 + alpha = 2: the density is y^2
        mu, _ = section6_measure(Power(2), Power(4), "bergman_to_bergman", 0.0)
        np.testing.assert_allclose(mu.profile(np.array([0.5, 2.0])), [0.25, 4.0])

    def test_power_pair_density_value(self):
        # phi1 = t^2, phi2 = t^4 makes the density identically one
        mu, _ = section6_measure(Power(2), Power(4))
        np.testing.assert_allclose(mu.profile(np.array([0.25, 1.0, 4.0])), 1.0)

    def test_annulus_bound_shape(self):
        comp = derived_pair(Power(2), Power(4))[0]
        # closed form: sum_j 2^(j+1) L^2 / 4^j = 4 L^2
        for L in (0.5, 1.0, 2.0):
            assert section6_annulus_bound(comp, L) == pytest.approx(4.0 * L * L, rel=1e-12)

    def test_annulus_bound_dominates_mass(self):
        for phi2 in (Power(4), Power(6)):
            mu, _ = section6_measure(Power(2), phi2)
            comp = derived_pair(Power(2), phi2)[0]
            for L in (0.5, 1.0, 2.0):
                mass = box_mass(mu, CarlesonBox(0.0, L))
                assert mass <= section6_annulus_bound(comp, L) * (1 + 1e-9)
