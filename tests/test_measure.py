import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp import measure
from orliczhp.config import parse_density
from orliczhp.growth import ComposedInverse, Power, PowerLog, derived_pair
from orliczhp.measure import (
    AtomicMeasure,
    BoxFamily,
    CarlesonBox,
    DensityMeasure,
    PixelGrid,
    RestrictedMeasure,
    Verdict,
    WeightedVolume,
    adapted_box_family,
    box_mass,
    carleson_box_constant,
    pixel_masses,
)
from orliczhp.spaces import CarlesonKernel, modular_halfplane

E2 = math.e ** 2


def section6_density(phi2):
    comp, _ = derived_pair(Power(2), phi2)

    def rho(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            denom = y * y * np.asarray(comp(1.0 / y))
            return np.where(denom > 0, 1.0 / denom, np.inf)

    return DensityMeasure(rho, "section6")


class TestBoxMass:
    def test_atom_inside(self):
        mu = AtomicMeasure((0.0,), (0.5,), (1.0,))
        assert box_mass(mu, CarlesonBox(0.0, 2.0)) == 1.0

    def test_atom_above_small_box(self):
        mu = AtomicMeasure((0.0,), (0.5,), (1.0,))
        assert box_mass(mu, CarlesonBox(0.0, 0.2)) == 0.0

    def test_box_half_open(self):
        # x = b excluded, y = |I| excluded
        mu = AtomicMeasure((1.0, 0.0), (0.5, 1.0), (1.0, 1.0))
        assert box_mass(mu, CarlesonBox(0.5, 1.0)) == 0.0
        # and the left endpoint is included
        assert box_mass(mu, CarlesonBox(1.5, 1.0)) == 1.0

    def test_weighted_volume_closed_form(self):
        assert box_mass(WeightedVolume(0.0), CarlesonBox(0.0, 2.0)) == pytest.approx(4.0)
        for alpha in (0.0, 1.0, 2.5):
            for L in (0.5, 1.0, 2.0):
                got = box_mass(WeightedVolume(alpha), CarlesonBox(0.3, L))
                assert got == pytest.approx(L ** (alpha + 2) / (1 + alpha), rel=1e-14)

    def test_density_quadrature_matches_volume(self):
        for alpha in (0.0, 1.0, 2.5):
            mu = DensityMeasure(lambda y, a=alpha: np.asarray(y, float) ** a, "y^a")
            for L in (0.5, 2.0):
                got = box_mass(mu, CarlesonBox(0.0, L))
                assert got == pytest.approx(L ** (alpha + 2) / (1 + alpha), rel=1e-8)

    def test_monotone_in_box(self):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-2, 2, 30)
        ys = 10.0 ** rng.uniform(-2, 0.5, 30)
        ms = rng.exponential(1.0, 30)
        mu = AtomicMeasure(tuple(xs), tuple(ys), tuple(ms))
        small = box_mass(mu, CarlesonBox(0.0, 1.0))
        big = box_mass(mu, CarlesonBox(0.0, 4.0))
        assert big >= small

    def test_atomic_partition_additivity(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(-1.9, 1.9, 40)
        ys = rng.uniform(1e-3, 1.9, 40)
        ms = rng.exponential(1.0, 40)
        mu = AtomicMeasure(tuple(xs), tuple(ys), tuple(ms))
        parent = CarlesonBox(0.0, 4.0)
        # split [a, b) x (0, 4) into four half-length boxes plus the strip
        # 2 <= y < 4; the boxes are half-open so nothing double-counts
        halves = [CarlesonBox(-1.0, 2.0), CarlesonBox(1.0, 2.0)]
        total = sum(box_mass(mu, h) for h in halves)
        strip = float(np.sum(ms[(xs >= -2) & (xs < 2) & (ys >= 2) & (ys < 4)]))
        assert total + strip == pytest.approx(box_mass(mu, parent), rel=1e-12)

    def test_weighted_volume_scaling_exact(self):
        for alpha in (0.0, 1.0, 2.5):
            mu = WeightedVolume(alpha)
            a = box_mass(mu, CarlesonBox(0.0, 2.0))
            b = box_mass(mu, CarlesonBox(0.0, 1.0))
            assert a / b == pytest.approx(2.0 ** (2 + alpha), rel=1e-14)

    def test_restricted_masses(self):
        rm = RestrictedMeasure(WeightedVolume(0.0), CarlesonBox(0.0, 1.0))
        assert box_mass(rm, CarlesonBox(0.0, 4.0)) == pytest.approx(1.0)
        assert box_mass(rm, CarlesonBox(0.0, 0.5)) == pytest.approx(0.25)
        assert box_mass(rm, rm.region) == pytest.approx(1.0)

    def test_section6_counterexample_diverges(self):
        mu = section6_density(PowerLog(2, 1, E2))
        assert box_mass(mu, CarlesonBox(0.0, 1.0)) == math.inf

    def test_section6_power_variant_converges(self):
        mu = section6_density(Power(4))
        # composed function is t^2, so the density is identically one
        assert box_mass(mu, CarlesonBox(0.0, 1.0)) == pytest.approx(1.0, rel=1e-9)


class TestBoxSweep:
    def test_identity_on_weighted_volume(self):
        for alpha in (0.0, 1.0):
            sweep = carleson_box_constant(
                WeightedVolume(alpha), Power(1), 2.0 + alpha, BoxFamily(-6, 6)
            )
            assert sweep.verdict.finite
            assert sweep.constant == pytest.approx(1.0 / (1.0 + alpha), rel=1e-12)

    # the sweep fold's contract: the first largest value gives the witness,
    # so ties go to the smallest length, then to the leftmost centre, and
    # the first infinite value ends the sweep
    def test_ties_go_to_the_smallest_length(self):
        sweep = carleson_box_constant(WeightedVolume(0), Power(1), 2.0, BoxFamily(-4, 4))
        assert sweep.ladder == tuple((2.0 ** j, 1.0) for j in range(-4, 5))
        assert sweep.witness == CarlesonBox(0.0, 0.0625)

    def test_ties_go_to_the_leftmost_centre(self):
        mu = AtomicMeasure((0.0,), (0.5,), (1.0,))
        sweep = carleson_box_constant(mu, Power(1), 1.0, BoxFamily(-4, 4))
        assert (sweep.constant, sweep.witness) == (1.0, CarlesonBox(-0.25, 1.0))

    def test_counterexample_sweep_divergent(self):
        mu = section6_density(PowerLog(2, 1, E2))
        comp, _ = derived_pair(Power(2), PowerLog(2, 1, E2))
        sweep = carleson_box_constant(mu, comp, 1.0, BoxFamily(-4, 4))
        assert sweep.verdict == Verdict("divergent")
        assert sweep.constant == math.inf
        assert sweep.ladder == ((0.0625, math.inf),)
        assert sweep.witness == CarlesonBox(0.0, 0.0625)

    def test_overflowing_box_value_is_divergent(self):
        # phi(1/|I|^100) = |I|^-200 overflows for |I| <= 2^-6, while the box
        # masses |I|^2 stay finite and positive
        sweep = carleson_box_constant(WeightedVolume(0.0), Power(2), 100.0, BoxFamily(-8, 4))
        assert sweep.verdict == Verdict("divergent")
        assert (sweep.constant, sweep.ladder) == (math.inf, ((2.0 ** -8, math.inf),))

    def test_overflowing_weight_keeps_empty_boxes_at_zero(self):
        # phi(1/|I|^200) = |I|^-400 is inf for |I| <= 2^-3: the empty boxes
        # below the atom are worth 0, the first box holding it is inf
        mu = AtomicMeasure((0.0,), (0.01,), (1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sweep = carleson_box_constant(mu, Power(2), 200.0)
        assert sweep.verdict == Verdict("divergent")
        assert sweep.constant == math.inf
        assert sweep.ladder == tuple((2.0 ** j, 0.0) for j in range(-10, -6)) + (
            (2.0 ** -6, math.inf),)

    def test_good_variant_constant_one(self):
        mu = section6_density(Power(4))
        comp, _ = derived_pair(Power(2), Power(4))
        sweep = carleson_box_constant(mu, comp, 1.0, BoxFamily(-6, 6))
        assert sweep.verdict.finite
        assert sweep.constant == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.xfail(strict=True, reason=(
        "measure._probed's ratio rule d2 >= d1 / 2 holds for every y^-a with "
        "a >= 0, whose increment ratio is 2^(a-1) (CHANGES.md, FOUND: the "
        "divergence probe flags integrable densities)"
    ))
    def test_integrable_singular_density_is_carleson(self):
        """``y^-1/2 dx dy`` is ``WeightedVolume(-0.5)``: its box masses are
        ``2 |I|^(3/2)``, so it is Carleson for s = 3/2 with constant 2."""
        mu = DensityMeasure(parse_density("y^-0.5"), "y^-0.5")
        assert box_mass(mu, CarlesonBox(0.0, 0.04)) == pytest.approx(0.016, rel=1e-9)
        sweep = carleson_box_constant(mu, Power(1), 1.5)
        assert sweep.verdict.finite
        assert sweep.constant == pytest.approx(2.0, rel=1e-8)

    def test_mismatched_volume_trend(self):
        sweep = carleson_box_constant(WeightedVolume(0.0), Power(2), 2.0, BoxFamily(-6, 6))
        assert sweep.verdict == Verdict("growing_small_scale")

    def test_adapted_family_extends_below_atoms(self):
        mu = AtomicMeasure((0.0,), (1e-3,), (1.0,))
        fam = adapted_box_family(mu, BoxFamily(-4, 4))
        assert 2.0 ** fam.j_min < 1e-3

    @pytest.mark.parametrize("extent", [0.0, -1.0, math.inf, math.nan])
    def test_window_must_be_positive_and_finite(self, extent):
        # a window of no width holds no centre but 0, so a sweep over it
        # would miss every box of a measure away from the origin
        with pytest.raises(ValueError):
            BoxFamily(extent=extent)


def dense_rows(mu, phi, s, family=BoxFamily()):
    """The sweep's rows as the dense loop over ``centers_at`` made them:
    every centre of every length, the first largest value per length."""
    family = adapted_box_family(mu, family)
    xs, ys, ms = mu.atoms().arrays()
    rows = []
    for length in family.lengths():
        with np.errstate(over="ignore", divide="ignore"):
            weight = phi(1.0 / length ** s)
        centers = family.centers_at(length)
        masses = measure._atomic_scale_masses(xs, ms, ys, length, centers)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.where(masses > 0, masses * weight, 0.0)
        i = int(np.argmax(vals))
        rows.append((float(length), float(vals[i]), CarlesonBox(float(centers[i]), float(length))))
    return rows


def bits(rows):
    return [(length.hex(), value.hex(), box.center_x.hex(), box.length.hex())
            for length, value, box in rows]


def swept_rows(mu, phi, s, family=BoxFamily()):
    """The sweep and the rows ``carleson_box_constant`` folds, read through
    a spy on ``measure._fold``."""
    seen = []
    fold = measure._fold
    with mock.patch.object(measure, "_fold", lambda rows: fold(seen.extend(rows) or seen)):
        sweep = carleson_box_constant(mu, phi, s, family)
    return sweep, seen


EXTENT = 4.0


@st.composite
def atom_clouds(draw):
    """Atoms on box edges ``-X + k step +- L/2``, at heights equal to a
    length or between lengths, some of zero mass, all within ``[-X, X]``
    so that the adapted family keeps ``X``."""
    n = draw(st.integers(1, 6))
    xs, ys, ms = [], [], []
    for _ in range(n):
        j = draw(st.integers(-7, 0))
        length = 2.0 ** j
        step = 0.25 * length
        if draw(st.booleans()):
            k = draw(st.integers(0, int(2 * (EXTENT - 1) / step)))
            x = -EXTENT + step * k + draw(st.sampled_from([-0.5, 0.5])) * length
        else:
            x = draw(st.floats(-(EXTENT - 1), EXTENT - 1))
        y = length if draw(st.booleans()) else draw(st.floats(1e-3, 0.5))
        xs.append(min(max(x, -(EXTENT - 1)), EXTENT - 1))
        ys.append(y)
        ms.append(draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])))
    atoms = AtomicMeasure(tuple(xs), tuple(ys), tuple(ms))
    if draw(st.booleans()):
        return atoms
    return RestrictedMeasure(atoms, CarlesonBox(draw(st.floats(-2.0, 2.0)), 2.0))


class TestSparseAtomicSweep:
    """The atomic sweep visits only the centres whose boxes can hold an
    atom, and keeps every row of the dense sweep bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(mu=atom_clouds(),
           phi=st.sampled_from([Power(1), Power(2), ComposedInverse(Power(3), Power(2))]),
           s=st.sampled_from([1.0, 2.0, 2.5]),
           step_fraction=st.sampled_from([0.125, 0.25, 0.3, 0.5]))
    def test_rows_equal_the_dense_sweep(self, mu, phi, s, step_fraction):
        family = BoxFamily(extent=EXTENT, step_fraction=step_fraction)
        if mu.atoms().masses:
            assert adapted_box_family(mu, family).extent == EXTENT
        sweep, rows = swept_rows(mu, phi, s, family)
        dense = dense_rows(mu, phi, s, family)
        assert bits(rows) == bits(dense)
        assert sweep == measure._fold(dense)

    def test_rows_above_every_atom_keep_the_first_centre(self):
        mu = AtomicMeasure((0.7, -1.3), (0.3, 0.05), (1.0, 2.0))
        _, rows = swept_rows(mu, Power(1), 1.0)
        zero = [box for _, value, box in rows if value == 0.0]
        assert zero and all(box.center_x == -16.0 for box in zero)
        assert bits(rows) == bits(dense_rows(mu, Power(1), 1.0))

    def test_zero_mass_cloud_witness_is_the_first_box(self):
        mu = AtomicMeasure((0.5, 1.0), (0.1, 0.2), (0.0, 0.0))
        sweep = carleson_box_constant(mu, Power(1), 1.0, BoxFamily(-4, 4))
        assert (sweep.constant, sweep.witness) == (0.0, CarlesonBox(-16.0, 0.0625))

    def test_cost_follows_the_atoms(self, monkeypatch):
        """One atom at height 1e-9: the dense sweep would build about 2^35
        centres at the smallest length, the sparse one a few per length."""
        sizes = []
        masses = measure._atomic_scale_masses

        def spy(xs, ms, ys, length, centers):
            sizes.append(centers.size)
            return masses(xs, ms, ys, length, centers)

        monkeypatch.setattr(measure, "_atomic_scale_masses", spy)
        mu = AtomicMeasure((0.3,), (1e-9,), (1.0,))
        t0 = time.perf_counter()
        sweep = carleson_box_constant(mu, Power(1), 1.0)
        elapsed = time.perf_counter() - t0
        length = 2.0 ** math.ceil(math.log2(1e-9))  # the smallest dyadic length above the atom
        assert sweep.constant == 1.0 / length == 2.0 ** 29
        assert sweep.witness.length == length and sweep.witness.contains(0.3, 1e-9)
        assert sweep.verdict.finite
        assert max(sizes) <= 24
        assert elapsed < 0.5

    def test_imports_no_masked_arrays(self):
        """``np.union1d`` would import ``numpy.ma`` (about 10 ms) inside the
        first atomic sweep of a process."""
        src = str(Path(measure.__file__).resolve().parents[1])
        code = ("import sys, numpy as np\n"
                "from orliczhp.corpus import random_atoms\n"
                "from orliczhp.growth import Power\n"
                "from orliczhp.measure import carleson_box_constant\n"
                "carleson_box_constant(random_atoms(np.random.default_rng(0)), Power(2), 1.0)\n"
                "print('numpy.ma' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestPixelGrid:
    def test_volume_pixel_masses_sum(self):
        grid = PixelGrid(-2.0, 2.0, 2.0, 64, 64)
        masses = pixel_masses(WeightedVolume(1.0), grid)
        # exact: int over the window of y dy dx = 4 * 2^2/2
        assert masses.sum() == pytest.approx(8.0, rel=1e-12)

    def test_atomic_pixels(self):
        grid = PixelGrid(-2.0, 2.0, 2.0, 16, 16)
        mu = AtomicMeasure((0.1, 5.0), (0.1, 0.1), (2.0, 7.0))
        masses = pixel_masses(mu, grid)
        assert masses.sum() == pytest.approx(2.0)  # off-window atom dropped

    def test_restricted_pixels(self):
        grid = PixelGrid(-2.0, 2.0, 2.0, 64, 64)
        rm = RestrictedMeasure(WeightedVolume(0.0), CarlesonBox(0.0, 1.0))
        masses = pixel_masses(rm, grid)
        assert masses.sum() == pytest.approx(1.0, rel=1e-12)


class TestDensityIntegrate:
    """A density kernel modular is the probe's three segments plus ``(0, 1)``
    and the ``(1, inf)`` tail, each one 1-D rule run once: tanh-sinh on a
    band, exp-sinh on the tail."""

    F = CarlesonKernel(1j, Power(2), 1.0)

    def spied(self, monkeypatch, mu):
        calls = []

        def spy(name, engine):
            def run(*args, **kwargs):
                calls.append((name, engine, args, kwargs))
                return engine(*args, **kwargs)
            return run

        for name in ("tanh_sinh", "exp_sinh"):
            monkeypatch.setattr(measure, name, spy(name, getattr(measure, name)))
        return modular_halfplane(self.F, Power(4), mu), calls

    def test_finite_modular_integrates_the_tail_once(self, monkeypatch):
        got, calls = self.spied(monkeypatch, section6_density(Power(4)))
        assert math.isfinite(got)
        assert len(calls) == 5
        tails = [c for c in calls if c[0] == "exp_sinh"]
        assert len(tails) == 1
        bands = {args[1:3]: (engine, args, kw) for name, engine, args, kw in calls
                 if name == "tanh_sinh"}

        def rerun(engine, args, kw):
            return engine(*args, **kw).value

        assert got == rerun(*bands[(0.0, 1.0)]) + rerun(*tails[0][1:])

    def test_divergent_modular_stops_after_the_probe(self, monkeypatch):
        got, calls = self.spied(monkeypatch, DensityMeasure(parse_density("1/y"), "1/y"))
        assert got == math.inf
        assert len(calls) == 4


class TestDensityGrammar:
    def test_power_density(self):
        rho = parse_density("y^2")
        np.testing.assert_allclose(rho(np.array([1.0, 2.0])), [1.0, 4.0])

    def test_section6_expression(self):
        rho = parse_density("1 / (y^2 * compose_inv(power(4), power(2))(1/y))")
        # composed = t^2 so the density is one
        np.testing.assert_allclose(rho(np.array([0.5, 1.0, 2.0])), 1.0)

    def test_rejects_negative(self):
        from orliczhp.config import ConfigError
        with pytest.raises(ConfigError):
            parse_density("y - 2")  # subtraction is not in the grammar
