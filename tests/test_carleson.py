import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp import carleson, growth, measure, spaces
from orliczhp.corpus import random_atoms
from orliczhp.growth import GrowthDomainError, Power, PowerLog, Tabulated
from orliczhp.integrals import DEFAULT_SPEC, beta
from orliczhp.measure import (
    AtomicMeasure,
    BoxFamily,
    CarlesonBox,
    PixelGrid,
    RestrictedMeasure,
    Verdict,
    WeightedVolume,
)
from orliczhp.carleson import (
    bergman_test_family,
    embedding_constant,
    hardy_test_family,
    kernel_testing_constant,
    verify_equivalence,
    weak_hardy_family,
    weak_type_constant,
)
from orliczhp.multipliers import section6_measure
from orliczhp.spaces import CarlesonKernel, bergman_norm, modular_halfplane

E2 = math.e ** 2


class TestKernelConstant:
    def test_single_atom_value(self):
        mu = AtomicMeasure((0.0,), (1.0,), (1.0,))
        # contribution 1 * y^2/|z - conj(w)|^2 = 1/4 at z = w = i
        value = modular_halfplane(CarlesonKernel(1j, Power(1), 1.0), Power(1), mu)
        assert value == pytest.approx(0.25, rel=1e-14)

    def test_empty_measure(self):
        sweep = kernel_testing_constant(AtomicMeasure.empty(), Power(1), Power(1), 1.0)
        assert sweep.constant == 0.0
        assert sweep.verdict.finite

    def test_weighted_volume_oracle_chain(self):
        # powers p = q = 1, s = 2, z = i: the integrand is y^4/D^2 with
        # D = x^2 + (1+v)^2, so the value is B(1/2,3/2) * B(1,2) by the two
        # kernel closed forms
        value = modular_halfplane(CarlesonKernel(1j, Power(1), 2.0), Power(1),
                                  WeightedVolume(0.0))
        want = beta(0.5, 1.5) * beta(1, 2)
        assert value == pytest.approx(want, rel=1e-4)

    @pytest.mark.parametrize("mode, s", [("hardy", None), ("raw", 0.4)])
    def test_divergent_volume_kernel(self, mode, s):
        # t -> t on dx dy: at s = 1 the height integral diverges (2m - 2 = 0),
        # at s = 0.4 already the x-integral (m = 0.4 <= 1/2); the sweep stops
        # at the first ladder height
        rep = verify_equivalence(WeightedVolume(0.0), Power(1), Power(1), mode=mode, s=s)
        assert rep.kernel.verdict == Verdict("divergent")
        assert rep.kernel.ladder == ((2.0 ** -8, math.inf),)
        assert rep.kernel.witness == 2.0 ** -8 * 1j
        assert not any(rep.verdicts.values())

    def test_sweep_stops_at_the_first_infinite_value(self):
        mu = section6_measure(Power(2), PowerLog(2, 1, E2))[0]
        sweep = kernel_testing_constant(mu, Power(2), PowerLog(2, 1, E2), 1.0)
        assert sweep.verdict == Verdict("divergent")
        assert sweep.ladder == ((2.0 ** -8, math.inf),)
        assert sweep.witness == 2.0 ** -8 * 1j


# measures that do not depend on x: weighted volumes and a section-6 density
# (phi1 = t^2, phi2 = t^6, so the density is y dx dy, by its own quadrature)
X_INDEPENDENT = [WeightedVolume(0.0), WeightedVolume(1.0), WeightedVolume(-0.5),
                 section6_measure(Power(2), Power(6))[0]]
kernel_cases = dict(
    mu=st.sampled_from(X_INDEPENDENT),
    phi2=st.sampled_from([Power(4), PowerLog(2, 1, math.e)]),
    s=st.sampled_from([1.0, 2.0]),
    y=st.integers(-4, 4).map(lambda k: 2.0 ** k),
)


class TestKernelModularProperties:
    """``int phi2(|k_z| / scale) dmu`` for the Carleson kernel of
    ``phi1 = t^2`` at ``z = x + iy``, on measures that do not depend on x."""

    @settings(max_examples=15, deadline=None)
    @given(x=st.floats(-1e4, 1e4), **kernel_cases)
    def test_translation_invariance(self, mu, phi2, s, y, x):
        at_zero = modular_halfplane(CarlesonKernel(complex(0.0, y), Power(2), s), phi2, mu)
        at_x = modular_halfplane(CarlesonKernel(complex(x, y), Power(2), s), phi2, mu)
        assert abs(at_x - at_zero) <= DEFAULT_SPEC.rel_tol * at_zero

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(1e-2, 1e2), factor=st.floats(1.0, 1e2), **kernel_cases)
    def test_monotone_in_scale(self, mu, phi2, s, y, scale, factor):
        # phi2(|k| / scale) falls pointwise; the two integrals may stop at
        # different levels, so they are compared to the engine's tolerance
        k = CarlesonKernel(complex(0.0, y), Power(2), s)
        small = modular_halfplane(k, phi2, mu, scale=scale)
        large = modular_halfplane(k, phi2, mu, scale=scale * factor)
        assert large <= small * (1.0 + DEFAULT_SPEC.rel_tol)


NORM_HEIGHTS = tuple(2.0 ** k for k in range(-8, 10)) + (0.3, 7.1)


class TestBergmanFamilyNorm:
    """A power ``phi1`` gives every Bergman member one norm, by dilation."""

    @pytest.mark.parametrize("phi1", [Power(1), Power(1.5), Power(2), Power(3), Power(2, 3.0)])
    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    def test_power_members_share_the_closed_form(self, phi1, alpha):
        sp = (2.0 + alpha) * phi1.p
        closed = (beta(0.5, (2 * sp - 1) / 2) * beta(alpha + 1, 2 * sp - alpha - 2)) ** (1 / phi1.p)
        for member in bergman_test_family(phi1, alpha, NORM_HEIGHTS):
            # each member's norm is its own closed form, which differs from
            # the one at i by the rounding of its amplitude and of the powers
            # of y0 (at most 4 ulps)
            assert abs(member.source_norm - closed) <= 8 * math.ulp(closed)
            assert member.source_norm == bergman_norm(member.f, phi1, alpha).luxembourg

    def test_powerlog_members_keep_their_own_norms(self):
        phi1 = PowerLog(2, 1, E2)
        family = bergman_test_family(phi1, 0.0, (0.25, 1.0, 4.0))
        norms = [member.source_norm for member in family]
        assert norms == [bergman_norm(m.f, phi1, 0.0).luxembourg for m in family]
        assert len(set(norms)) == 3


class TestBergmanNormCalls:
    """What a Bergman family costs: one norm per member, and for a power
    ``phi1`` on a weighted volume no quadrature at all."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = spaces.bergman_norm

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(spaces, "bergman_norm", counted)
        monkeypatch.setattr(carleson, "bergman_norm", counted)
        return calls

    def test_powerlog_family_one_norm_per_member(self, calls):
        heights = (0.5, 1.0, 2.0)
        bergman_test_family(PowerLog(2, 1, E2), 0.0, heights)
        assert len(calls) == len(heights)

    def test_power_pair_on_a_volume_runs_no_quadrature(self, monkeypatch):
        # box masses, kernel modulars, member norms and member modulars are
        # all closed forms: no engine that measure.py calls may run
        calls = []
        for name in ("exp_sinh", "tanh_sinh", "integrate_halfplane"):
            real = getattr(measure, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(measure, name, counting)
        rep = verify_equivalence(WeightedVolume(0.0), Power(2), Power(4), mode="bergman")
        assert rep.embedding is not None and len(rep.embedding.per_member) == 9
        assert calls == []


class TestHardyPowerPairCalls:
    """A hardy run with a power pair integrates nothing in its family stage:
    the member norms are closed x-integrals, and of ``classify(phi1)`` only
    the Dini check runs."""

    @pytest.mark.parametrize("mu", [WeightedVolume(0.0), random_atoms(np.random.default_rng(0))],
                             ids=["volume", "atoms"])
    def test_no_rows_and_no_classify(self, mu, monkeypatch):
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        spy(spaces, "integrate_line_rows")
        spy(growth, "_classify")
        rep = verify_equivalence(mu, Power(2), Power(4), mode="hardy")
        assert rep.embedding is not None and len(rep.embedding.per_member) >= 9
        assert calls == []

    def test_phi1_vanishing_on_the_grid_is_refused(self):
        phi1 = Tabulated((0.0, 1e-3, 1e9), (0.0, 0.0, 1e9))
        with pytest.raises(GrowthDomainError, match="vanishes"):
            verify_equivalence(AtomicMeasure((0.0,), (1.0,), (1.0,)), phi1, Power(2),
                               mode="hardy", box_family=BoxFamily(-4, 4))


class TestEmbedding:
    def test_empty_measure_smallest_grid_value(self):
        fam = hardy_test_family(Power(2), heights=(1.0,))
        res = embedding_constant(AtomicMeasure.empty(), Power(2), fam)
        assert res.family_constant == pytest.approx(1e-4)

    def test_single_atom_arithmetic(self):
        # one atom: the smallest K with phi2(|f(atom)|/(K norm)) <= 1
        phi = Power(2)
        fam = hardy_test_family(phi, heights=(1.0,))
        member = fam[0]
        mu = AtomicMeasure((0.0,), (1.0,), (1.0,))
        res = embedding_constant(mu, phi, fam)
        value = float(member.f.abs_value(0.0, 1.0))
        exact = value / member.source_norm  # K with (v/(K n))^2 = 1
        got = res.per_member[0][1]
        assert got >= exact
        assert got <= exact * 10 ** (1.0 / 25.0) * (1 + 1e-12)  # one grid step

    def test_classical_embedding_exists(self):
        # V_1 with powers p=1, q=3 in the height-one mode: finite member Ks
        fam = hardy_test_family(Power(1))
        res = embedding_constant(WeightedVolume(1.0), Power(3), fam)
        assert res.verdict.finite


class TestVerifyEquivalence:
    def test_matched_volume_carleson(self):
        rep = verify_equivalence(
            WeightedVolume(1.0), Power(1), Power(3), mode="hardy",
            box_family=BoxFamily(-6, 6),
        )
        assert rep.coherent and rep.carleson is True
        assert rep.kernel_box_ratio is not None

    def test_mismatched_volume_not_carleson(self):
        rep = verify_equivalence(
            WeightedVolume(0.0), Power(2), Power(3), mode="hardy",
            box_family=BoxFamily(-6, 6),
        )
        assert rep.coherent and rep.carleson is False

    def test_section6_counterexample(self):
        mu, expected = section6_measure(Power(2), PowerLog(2, 1, E2))
        assert expected is False
        rep = verify_equivalence(
            mu, Power(2), PowerLog(2, 1, E2), mode="hardy",
            box_family=BoxFamily(-5, 5),
        )
        assert rep.box.verdict == Verdict("divergent")
        assert rep.coherent and rep.carleson is False

    def test_section6_power_variant(self):
        mu, expected = section6_measure(Power(2), Power(4))
        assert expected is True
        rep = verify_equivalence(
            mu, Power(2), Power(4), mode="hardy", box_family=BoxFamily(-5, 5),
        )
        assert rep.coherent and rep.carleson is True

    def test_nabla2_warning_for_identity(self):
        rep = verify_equivalence(
            AtomicMeasure((0.0,), (1.0,), (1.0,)), Power(1), Power(2), mode="hardy",
            box_family=BoxFamily(-4, 4),
        )
        assert any("Dini" in w or "nabla2" in w for w in rep.warnings)

    def test_raw_mode_skips_embedding(self):
        rep = verify_equivalence(
            AtomicMeasure((0.0,), (1.0,), (1.0,)), Power(2), Power(4),
            mode="raw", s=2.0, box_family=BoxFamily(-4, 4),
        )
        assert rep.embedding is None
        assert set(rep.verdicts) == {"box", "kernel"}

    def test_report_serializes(self):
        rep = verify_equivalence(
            AtomicMeasure((0.0,), (1.0,), (1.0,)), Power(2), Power(4),
            mode="raw", s=1.0, box_family=BoxFamily(-4, 4),
        )
        d = rep.as_dict()
        assert d["coherent"] is True
        assert "box_constant" in d and "kernel_constant" in d


# (measure, phi2, the box, kernel and embedding reasons) with phi1 = t^2 in
# hardy mode: every (tester, reason) pair the testers reach today
REASON_CASES = {
    "volume-q2": (WeightedVolume(0.0), Power(2), ["growing_large_scale"] * 3),
    "volume-q5": (WeightedVolume(0.0), Power(5), ["growing_small_scale"] * 3),
    "section6-powerlog": (section6_measure(Power(2), PowerLog(2, 1, E2))[0],
                          PowerLog(2, 1, E2), ["divergent", "divergent", "unbounded_member"]),
}


@pytest.mark.parametrize("case", REASON_CASES)
def test_every_reachable_verdict_reason(case):
    mu, phi2, reasons = REASON_CASES[case]
    rep = verify_equivalence(mu, Power(2), phi2, mode="hardy")
    assert [rep.box.verdict, rep.kernel.verdict, rep.embedding.verdict] == \
        [Verdict(r) for r in reasons]
    assert rep.coherent and rep.carleson is False and rep.kernel_box_ratio is None
    # the body's trend keys name a growing edge and read "bounded" otherwise
    d = rep.as_dict()
    trends = [r if r.startswith("growing") else "bounded" for r in reasons[:2]]
    assert [d["box_trend"], d["kernel_trend"]] == trends
    assert d["verdicts"] == {"box": False, "kernel": False, "embedding": False}


class TestWeakType:
    def test_empty_measure(self):
        fam = weak_hardy_family(Power(2), heights=(1.0,))
        res = weak_type_constant(AtomicMeasure.empty(), Power(2), fam)
        assert res.family_constant == pytest.approx(1e-4)

    def test_single_atom_closed_form(self):
        # sup_lam phi2(lam) mu({|f| > C lam n}) = phi2(v/(C n)) for a unit
        # atom with value v, so the smallest admissible C is v/n (phi2 = t^2
        # crosses one exactly there); grid search lands within one step
        phi = Power(2)
        fam = weak_hardy_family(phi, heights=(1.0,))
        member = fam[0]
        mu = AtomicMeasure((0.0,), (1.0,), (1.0,))
        lams = np.geomspace(1e-4, 1e4, 161)
        res = weak_type_constant(mu, phi, fam, lambda_grid=lams)
        v = float(member.f.abs_value(0.0, 1.0))
        exact = v / member.source_norm
        got = res.per_member[0][1]
        assert got >= exact / 10 ** (1.0 / 25.0)
        assert got <= exact * 10 ** (1.0 / 25.0) * (1 + 1e-9)

    @pytest.mark.parametrize("grids", [
        {"lambda_grid": np.array([])},
        {"lambda_grid": np.array([math.nan])},
        {"lambda_grid": np.array([math.inf])},
        {"lambda_grid": np.array([-1.0, 1.0])},
    ])
    def test_vacuous_grid_is_rejected(self, grids):
        mu = AtomicMeasure((0.0,), (1.0,), (1.0,))
        fam = weak_hardy_family(Power(2), heights=(1.0,))
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            weak_type_constant(mu, Power(4), fam, **grids)

    def test_weak_below_strong_memberwise(self):
        phi1, phi2 = Power(2), Power(4)
        weak_fam = weak_hardy_family(phi1, heights=(0.5, 1.0, 2.0))
        strong_fam = hardy_test_family(phi1, heights=(0.5, 1.0, 2.0))
        measures = [
            AtomicMeasure((0.0,), (1.0,), (1.0,)),
            random_atoms(np.random.default_rng(31)),
            RestrictedMeasure(WeightedVolume(0.0), CarlesonBox(0.0, 2.0)),
        ]
        pixels = PixelGrid(-8.0, 8.0, 8.0, 256, 256)
        for mu in measures:
            weak = weak_type_constant(mu, phi2, weak_fam, pixels=pixels)
            strong = embedding_constant(mu, phi2, strong_fam)
            for (_, wk), (_, sk) in zip(weak.per_member, strong.per_member):
                assert wk <= sk * (1 + 1e-6)


class TestRatioStability:
    def test_power_family_bracket(self):
        ratios = []
        for (p, q) in ((1.0, 2.0), (1.0, 3.0), (2.0, 4.0)):
            gamma = q / p - 2.0  # matched weighted volume for s = 1
            if gamma <= -1.0:
                continue
            rep = verify_equivalence(
                WeightedVolume(gamma), Power(p), Power(q), mode="hardy",
                box_family=BoxFamily(-5, 5),
            )
            assert rep.carleson is True
            ratios.append(rep.kernel_box_ratio)
        bracket = max(max(ratios), 1.0 / min(ratios))
        assert bracket <= 1e3
