import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orliczhp import measure
from orliczhp.config import parse_density
from orliczhp.corpus import random_atoms
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

    @pytest.mark.parametrize("j_min, j_max", [(-1021, 0), (-1074, 0), (0, 1024)])
    def test_ladder_must_stay_in_the_normal_floats(self, j_min, j_max):
        # at a quarter-length step, 2^-1020 is the smallest length whose step
        # is a normal float, and 2^1023 the largest finite length
        BoxFamily(-1020, 1023)
        with pytest.raises(ValueError):
            BoxFamily(j_min, j_max)


def scale_masses(xs, ms, ys, length, centers):
    """The box masses of one length as the per-length sweep made them: the
    atoms below the length in stable ``x`` order, their prefix sums, and
    one ``searchsorted`` per box edge."""
    keep = ys < length
    if not np.any(keep):
        return np.zeros_like(centers)
    xs_k = xs[keep]
    ms_k = ms[keep]
    o = np.argsort(xs_k, kind="stable")
    xs_s = xs_k[o]
    cum = np.concatenate([[0.0], np.cumsum(ms_k[o])])
    lo = np.searchsorted(xs_s, centers - 0.5 * length, side="left")
    hi = np.searchsorted(xs_s, centers + 0.5 * length, side="left")
    return cum[hi] - cum[lo]


def dense_rows(mu, phi, s, family=BoxFamily()):
    """The sweep's rows as the per-length loop over ``centers_at`` makes
    them, the first largest value per length.  Of each grid it takes the
    first centre and every centre within a length and two steps of an atom
    below the length, so a whole length of margin beyond any box that can
    hold one: every other box is empty, and the full grid of a length near
    1e-6 over the window would be 2^27 centres."""
    family = adapted_box_family(mu, family)
    xs, ys, ms = mu.atoms().arrays()
    extent = family.extent
    rows = []
    for length in family.lengths():
        with np.errstate(over="ignore", divide="ignore"):
            weight = phi(1.0 / length ** s)
        if length >= 2.0 * extent:
            centers = family.centers_at(length)
        else:
            step = length * family.step_fraction
            first = np.floor((xs[ys < length] - length + extent) / step) - 2
            near = first[:, None] + np.arange(math.ceil(2.0 * length / step) + 5)
            k = np.unique(np.clip(np.append(0.0, near), 0, math.floor(2.0 * extent / step)))
            centers = -extent + step * k  # the formula of centers_at
        masses = scale_masses(xs, ms, ys, length, centers)
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
    """Up to 16 atoms on box edges ``-X + k step +- L/2``, at heights equal
    to a length or log-uniform down to 1e-6, some of zero mass, all within
    ``[-X, X]`` so that the adapted family keeps ``X``."""
    n = draw(st.integers(1, 16))
    xs, ys, ms = [], [], []
    for _ in range(n):
        j = draw(st.integers(-19, 0))
        length = 2.0 ** j
        step = 0.25 * length
        if draw(st.booleans()):
            k = draw(st.integers(0, int(2 * (EXTENT - 1) / step)))
            x = -EXTENT + step * k + draw(st.sampled_from([-0.5, 0.5])) * length
        else:
            x = draw(st.floats(-(EXTENT - 1), EXTENT - 1))
        y = length if draw(st.booleans()) else 10.0 ** draw(st.floats(-6.0, math.log10(0.5)))
        xs.append(min(max(x, -(EXTENT - 1)), EXTENT - 1))
        ys.append(y)
        ms.append(draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])))
    atoms = AtomicMeasure(tuple(xs), tuple(ys), tuple(ms))
    if draw(st.booleans()):
        return atoms
    return RestrictedMeasure(atoms, CarlesonBox(draw(st.floats(-2.0, 2.0)), 2.0))


def bench_cloud(rng):
    """A 12-atom cloud as the benchmark's ``equivalence_atoms`` builds it:
    ``random_atoms`` with |x| < 2 and heights 1e-2 .. 10^1.5, and an atom
    at each end of that height range."""
    decades = (-2.0, 1.5)
    cloud = random_atoms(rng, n_atoms=10, x_span=2.0, y_decades=decades)
    xs = rng.uniform(-2.0, 2.0, 2)
    ys = 10.0 ** np.asarray(decades)  # an array power, as the benchmark takes it
    ms = rng.exponential(1.0, 2)
    return AtomicMeasure(cloud.xs + tuple(xs), cloud.ys + tuple(ys), cloud.masses + tuple(ms))


PINNED_ROWS = Path(__file__).with_name("data") / "box_rows.json"


def pinned_sweeps():
    """The pinned sweeps: three benchmark clouds (seed 0) under
    ``phi2^-1 o phi1`` for p = 2, q in {2, 3, 4}, at s in {1, 2}."""
    rng = np.random.default_rng([0, 1])
    for ci in range(3):
        mu = bench_cloud(rng)
        for q in (2.0, 3.0, 4.0):
            for s in (1.0, 2.0):
                yield f"c{ci}-q{q:g}-s{s:g}", mu, ComposedInverse(Power(q), Power(2.0)), s


class TestSparseAtomicSweep:
    """The atomic sweep visits only the centres where a box mass can
    change, and keeps every row of the dense sweep bitwise."""

    @settings(max_examples=60, deadline=None)
    @given(mu=atom_clouds(),
           phi=st.sampled_from([Power(1), Power(2), ComposedInverse(Power(3), Power(2)),
                                ComposedInverse(Power(3.7), Power(1.5))]),
           s=st.sampled_from([1.0, 2.0, 2.5]),
           step_fraction=st.sampled_from([0.125, 0.25, 0.3, 0.5]))
    @example(mu=AtomicMeasure((0.5, -1.0, 2.0), (0.1, 1e-6, 0.3), (0.0, 0.0, 0.0)),
             phi=Power(2), s=1.0, step_fraction=0.25)
    @example(mu=RestrictedMeasure(AtomicMeasure((3.0, -2.5), (0.5, 1e-3), (1.0, 2.0)),
                                  CarlesonBox(0.0, 2.0)),
             phi=ComposedInverse(Power(3.7), Power(1.5)), s=2.5, step_fraction=0.3)
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
        widths = []
        candidates = measure._atomic_candidates

        def spy(family, lengths, xs):
            k = candidates(family, lengths, xs)
            widths.append(k.shape[1])
            return k

        monkeypatch.setattr(measure, "_atomic_candidates", spy)
        mu = AtomicMeasure((0.3,), (1e-9,), (1.0,))
        t0 = time.perf_counter()
        sweep = carleson_box_constant(mu, Power(1), 1.0)
        elapsed = time.perf_counter() - t0
        length = 2.0 ** math.ceil(math.log2(1e-9))  # the smallest dyadic length above the atom
        assert sweep.constant == 1.0 / length == 2.0 ** 29
        assert sweep.witness.length == length and sweep.witness.contains(0.3, 1e-9)
        assert sweep.verdict.finite
        assert widths and max(widths) <= 24
        assert elapsed < 0.5

    @pytest.mark.parametrize("x, height, center", [
        (0.3, 1e-14, 0.2999999999999936),
        (-7.1, 1e-15, -7.1),
    ])
    def test_crossings_of_deep_atoms(self, x, height, center):
        """Witnesses as the per-length sweep found them.  Near 1e-14 the
        centre indices pass 2^52, so a bisection midpoint may not form
        ``lo + hi``.  At x = -7.1 a step of the length 2^-49 is half an ulp
        of x, so a crossing lies indices away from its estimate
        ``(x -+ L/2 + X) / step``, and the padding must reach it."""
        sweep = carleson_box_constant(AtomicMeasure((x,), (height,), (1.0,)), Power(1), 1.0)
        length = 2.0 ** math.ceil(math.log2(height))
        assert (sweep.constant, sweep.witness) == (1.0 / length, CarlesonBox(center, length))

    def test_memory_follows_the_atoms(self):
        """At a step of 2^-12 lengths the per-length sweep held about 4100
        centres per atom (a tracemalloc peak of 1,868,969 bytes on this
        cloud); the candidates do not grow with the step."""
        mu = bench_cloud(np.random.default_rng([0, 1]))
        family = BoxFamily(step_fraction=2.0 ** -12)
        carleson_box_constant(mu, Power(2), 1.0, family)
        tracemalloc.start()
        try:
            carleson_box_constant(mu, Power(2), 1.0, family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 1_868_969

    def test_rows_are_pinned(self):
        """The rows of the pinned sweeps, bitwise as the per-length sweep
        made them (``python tests/test_measure.py`` rewrites the file)."""
        pinned = json.loads(PINNED_ROWS.read_text())
        got = {key: [list(row) for row in bits(swept_rows(mu, phi, s)[1])]
               for key, mu, phi, s in pinned_sweeps()}
        assert got == pinned

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


if __name__ == "__main__":
    PINNED_ROWS.parent.mkdir(exist_ok=True)
    lines = (f"{json.dumps(key)}: {json.dumps(bits(swept_rows(mu, phi, s)[1]))}"
             for key, mu, phi, s in pinned_sweeps())
    PINNED_ROWS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
