import math

import numpy as np
import pytest

from orliczhp.corpus import random_atoms
from orliczhp.growth import Power, PowerLog, derived_pair
from orliczhp.integrals import beta
from orliczhp.maximal import PoissonExtension, StepFunction1D
from orliczhp.measure import (
    AtomicMeasure,
    BoxFamily,
    CarlesonBox,
    PixelGrid,
    RestrictedMeasure,
    WeightedVolume,
    box_mass,
)
from orliczhp.carleson import (
    annulus_kernel_sum,
    bergman_test_family,
    carleson_kernel,
    embedding_constant,
    hardy_test_family,
    kernel_testing_constant,
    levelset_comparison_bergman,
    levelset_comparison_hardy,
    verify_equivalence,
    weak_hardy_family,
    weak_type_constant,
)
from orliczhp.multipliers import section6_measure

E2 = math.e ** 2


class TestKernelConstant:
    def test_single_atom_value(self):
        mu = AtomicMeasure((0.0,), (1.0,), (1.0,))
        # contribution 1 * y^2/|z - conj(w)|^2 = 1/4 at z = w = i
        sweep = kernel_testing_constant(mu, Power(1), Power(1), 1.0, points=[1j])
        assert sweep.constant == pytest.approx(0.25, rel=1e-14)

    def test_empty_measure(self):
        sweep = kernel_testing_constant(AtomicMeasure.empty(), Power(1), Power(1), 1.0)
        assert sweep.constant == 0.0
        assert sweep.finite

    def test_weighted_volume_oracle_chain(self):
        # powers p = q = 1, s = 2, z = i: the integrand is y^4/D^2 with
        # D = x^2 + (1+v)^2, so the value is B(1/2,3/2) * B(1,2) by the two
        # kernel closed forms
        sweep = kernel_testing_constant(WeightedVolume(0.0), Power(1), Power(1), 2.0,
                                        points=[1j])
        want = beta(0.5, 1.5) * beta(1, 2)
        assert sweep.constant == pytest.approx(want, rel=1e-4)

    def test_annulus_bookkeeping_exact(self):
        rng = np.random.default_rng(42)
        mu = random_atoms(rng)
        for z in (0.3 + 0.7j, 1j, -2 + 0.05j):
            k = carleson_kernel(Power(2), 1.0, z)
            xs, ys, ms = mu.arrays()
            direct = float(np.sum(ms * Power(2)(k(xs, ys))))
            ann = annulus_kernel_sum(mu, Power(2), Power(2), 1.0, z)
            assert abs(ann - direct) <= 1e-12 * max(direct, 1.0)


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
        assert res.finite

    @pytest.mark.parametrize("k_grid", [
        np.array([]), np.array([math.nan, 1.0]), np.array([1.0, math.inf]), np.array([-2.0]),
    ])
    def test_vacuous_k_grid_is_rejected(self, k_grid):
        fam = hardy_test_family(Power(2), heights=(1.0,))
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            embedding_constant(WeightedVolume(0.0), Power(4), fam, k_grid=k_grid)


class TestVerifyEquivalence:
    def test_matched_volume_carleson(self):
        rep = verify_equivalence(
            WeightedVolume(1.0), Power(1), Power(3), mode="hardy",
            box_family=BoxFamily(-6, 6), check_hypotheses=False,
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
        assert rep.box.divergent_mass
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
        {"c_grid": np.array([])},
        {"c_grid": np.array([0.0, 1.0])},
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


class TestLevelSetComparison:
    def test_poisson_of_scaled_indicator(self):
        lam = 0.5
        g = StepFunction1D(np.array([0.0, 1.0]), np.array([4.0 * lam]))
        ext = PoissonExtension(g)
        mu = AtomicMeasure((0.3, 0.7), (0.4, 0.8), (1.0, 1.0))  # atoms inside Q_I
        rep = levelset_comparison_hardy(
            mu, Power(2), lambda x, y: np.abs(ext(x, y)), [lam],
            x_window=16.0, n_cells=1024,
        )
        lam_, left, right, ratio = rep.rows[0]
        assert left == pytest.approx(2.0)  # the extension exceeds lam on the box
        assert right > 0 and math.isfinite(ratio)

    def test_empty_superlevel(self):
        zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
        mu = AtomicMeasure((0.0,), (1.0,), (1.0,))
        rep = levelset_comparison_hardy(mu, Power(2), zero, [1.0], n_cells=256)
        assert rep.rows[0][1] == 0.0
        assert rep.max_ratio == 0.0

    def test_bergman_single_box_arithmetic(self):
        from orliczhp.maximal import StepFunction2D

        xe = np.linspace(-8, 8, 65)
        ye = np.linspace(0, 8, 65)
        v = np.zeros((64, 64))
        v[32:36, 0:8] = 4.0
        f = StepFunction2D(xe, ye, v)
        mu = AtomicMeasure((0.5,), (0.5,), (1.0,))  # point mass at the box center
        rep = levelset_comparison_bergman(mu, Power(1), 0.0, f, [1.0], -2, 3)
        lam, left, right, ratio = rep.rows[0]
        # level set is exactly Q_[0,1): left = mu(Q) = 1; right = 1/phi(1/|Q|_0) = 1
        assert left == pytest.approx(1.0)
        assert right == pytest.approx(1.0)
        assert ratio == pytest.approx(1.0)


class TestRatioStability:
    def test_power_family_bracket(self):
        ratios = []
        for (p, q) in ((1.0, 2.0), (1.0, 3.0), (2.0, 4.0)):
            gamma = q / p - 2.0  # matched weighted volume for s = 1
            if gamma <= -1.0:
                continue
            rep = verify_equivalence(
                WeightedVolume(gamma), Power(p), Power(q), mode="hardy",
                box_family=BoxFamily(-5, 5), check_hypotheses=False,
            )
            assert rep.carleson is True
            ratios.append(rep.kernel_box_ratio)
        bracket = max(max(ratios), 1.0 / min(ratios))
        assert bracket <= 1e3
