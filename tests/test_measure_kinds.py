"""Restricted measures against independent oracles, and the rule that the
kind-specific code lives on the measure classes.

The oracles here are written out by hand: explicit loops over atoms for
masses and histograms, and the closed form ``width * h^(1+a) / (1+a)``
for the height profile ``y^a`` cut to a box.  A kernel that peaks inside
the region, with all but a negligible share of its modular there, must
give the whole measure's modular: the beta closed form for weighted
volume, and the measure's own half-plane rule otherwise.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp.carleson import adapted_heights, default_sample_points
from orliczhp.config import parse_density
from orliczhp.growth import Power
from orliczhp.integrals import beta
from orliczhp.measure import (
    AtomicMeasure,
    CarlesonBox,
    DensityMeasure,
    PixelGrid,
    RestrictedMeasure,
    WeightedVolume,
    adapted_box_family,
    box_mass,
    pixel_masses,
)
from orliczhp.spaces import BergmanKernel, modular_halfplane

REGION = CarlesonBox(0.5, 2.0)  # [-0.5, 1.5) x (0, 2)
BOXES = [CarlesonBox(c, L) for c in (-1.0, 0.0, 0.7, 2.5) for L in (0.25, 1.0, 3.0, 8.0)]


def _cloud() -> AtomicMeasure:
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3.0, 3.0, 40)
    ys = 10.0 ** rng.uniform(-2.0, 0.6, 40)
    ms = rng.exponential(1.0, 40)
    return AtomicMeasure(tuple(xs), tuple(ys), tuple(ms))


def _in_box(box: CarlesonBox, x: float, y: float) -> bool:
    return box.a <= x < box.b and 0.0 < y < box.length


def _in_region_atoms(mu: AtomicMeasure, region: CarlesonBox) -> list:
    return [(x, y, m) for x, y, m in zip(mu.xs, mu.ys, mu.masses) if _in_box(region, x, y)]


def _constant(c: float):
    return lambda x, y: np.full(np.broadcast(np.asarray(x), np.asarray(y)).shape, c)


def _profile(a: float) -> DensityMeasure:
    return DensityMeasure(lambda y, a=a: np.asarray(y, dtype=float) ** a, f"y^{a}")


def _slab_mass(a: float, box: CarlesonBox, region: CarlesonBox) -> float:
    width = max(0.0, min(box.b, region.b) - max(box.a, region.a))
    h = min(box.length, region.length)
    return width * h ** (1.0 + a) / (1.0 + a)


class TestRestrictedAtoms:
    def test_box_mass_brute_force(self):
        base = _cloud()
        mu = RestrictedMeasure(base, REGION)
        inside = _in_region_atoms(base, REGION)
        assert 0 < len(inside) < len(base.masses)
        for box in BOXES:
            want = sum(m for x, y, m in inside if _in_box(box, x, y))
            assert box_mass(mu, box) == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_total_mass_brute_force(self):
        base = _cloud()
        want = sum(m for _, _, m in _in_region_atoms(base, REGION))
        assert box_mass(RestrictedMeasure(base, REGION), REGION) == pytest.approx(want, rel=1e-12)

    def test_constant_modular_is_scaled_mass(self):
        base = _cloud()
        mu = RestrictedMeasure(base, REGION)
        want = sum(m for _, _, m in _in_region_atoms(base, REGION))
        for c in (0.5, 3.0):
            got = modular_halfplane(_constant(c), Power(1), mu)
            assert got == pytest.approx(c * want, rel=1e-12)

    def test_pixel_masses_histogram(self):
        base = _cloud()
        grid = PixelGrid(-4.0, 4.0, 4.0, 32, 32)
        xe, ye = grid.edges()
        want = np.zeros((grid.nx, grid.ny))
        for x, y, m in _in_region_atoms(base, REGION):
            i = int(np.searchsorted(xe, x, side="right")) - 1
            j = int(np.searchsorted(ye, y, side="right")) - 1
            want[i, j] += m
        got = pixel_masses(RestrictedMeasure(base, REGION), grid)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)

    def test_out_of_region_atoms_do_not_steer_ladders(self):
        # the low far atom lies outside the region, so the restricted cloud
        # must get exactly the ladders of the bare in-region cloud
        inside = AtomicMeasure((0.2, -0.5, 0.7), (0.3, 1.0, 0.05), (1.0, 2.0, 0.5))
        base = AtomicMeasure(
            inside.xs + (5.0,), inside.ys + (1e-4,), inside.masses + (4.0,)
        )
        mu = RestrictedMeasure(base, CarlesonBox(0.0, 2.0))
        assert adapted_heights(mu) == adapted_heights(inside)
        assert adapted_box_family(mu) == adapted_box_family(inside)
        assert default_sample_points(mu) == default_sample_points(inside)


class TestRestrictedDensity:
    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_box_mass_closed_form(self, a):
        mu = RestrictedMeasure(_profile(a), REGION)
        for box in BOXES:
            assert box_mass(mu, box) == pytest.approx(
                _slab_mass(a, box, REGION), rel=1e-8, abs=1e-14
            )

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_total_mass_closed_form(self, a):
        mu = RestrictedMeasure(_profile(a), REGION)
        L = REGION.length
        assert box_mass(mu, mu.region) == pytest.approx(L * L ** (1.0 + a) / (1.0 + a), rel=1e-8)

    def test_constant_modular_is_scaled_mass(self):
        a, c = 0.5, 3.0
        mu = RestrictedMeasure(_profile(a), REGION)
        L = REGION.length
        got = modular_halfplane(_constant(c), Power(1), mu)
        assert got == pytest.approx(c * L * L ** (1.0 + a) / (1.0 + a), rel=1e-7)


def _bergman_power4_modular(y0: float, alpha: float) -> float:
    """``int |f|^4 y^alpha dx dy`` over the half-plane for the kernel
    ``BergmanKernel(x0 + i y0, Power(2), alpha)``, ``s = 2 + alpha``: the
    x integral is ``B(1/2, 4s - 1/2) (y + y0)^(1 - 8s)`` and the y integral
    ``B(alpha + 1, 8s - alpha - 2) y0^(alpha + 2 - 8s)``, times the
    kernel's ``amp^4 y0^(8s) = y0^(6s)``."""
    s = 2.0 + alpha
    return beta(0.5, 4 * s - 0.5) * beta(alpha + 1, 8 * s - alpha - 2) * y0 ** (alpha + 2 - 2 * s)


PEAK_BASES = [WeightedVolume(0.0), WeightedVolume(1.0),
              DensityMeasure(parse_density("y^2"), "y^2")]


class TestRestrictedPeakedKernels:
    """The box rule is tanh-sinh on both sides, whose nodes crowd at the
    ends; a kernel that peaks inside the region is integrated by splitting
    the region at the kernel's centre."""

    @pytest.mark.parametrize("z0, alpha, region", [
        (1j / 256, 0.0, CarlesonBox(0.0, 2.0)),
        (0.9 + 1j / 128, 1.0, CarlesonBox(1.0, 2.0)),
    ])
    def test_peak_inside_volume_box(self, z0, alpha, region):
        f = BergmanKernel(z0, Power(2), alpha)
        base = WeightedVolume(alpha)
        whole = modular_halfplane(f, Power(4), base)
        got = modular_halfplane(f, Power(4), RestrictedMeasure(base, region))
        assert whole == pytest.approx(_bergman_power4_modular(z0.imag, alpha), rel=1e-12)
        assert abs(got - whole) <= 1e-9 * whole

    @settings(max_examples=30, deadline=None)
    @given(
        base=st.sampled_from(PEAK_BASES),
        center=st.floats(-2.0, 2.0),
        length=st.floats(2.0, 4.0),
        offset=st.floats(-0.25, 0.25),
        k=st.integers(4, 12),
        alpha=st.sampled_from([0.0, 1.0]),
    )
    def test_peak_inside_box_matches_whole_measure(self, base, center, length, offset,
                                                   k, alpha):
        """The peak is in the middle half of a box at least 2 long, so the
        kernel's modular outside the box is below 1e-11 of the whole."""
        f = BergmanKernel(complex(center + offset * length, 2.0 ** -k), Power(2), alpha)
        whole = modular_halfplane(f, Power(4), base)
        got = modular_halfplane(f, Power(4), RestrictedMeasure(base, CarlesonBox(center, length)))
        assert abs(got - whole) <= 1e-9 * whole


class TestKindRulesLiveOnTheClasses:
    MEASURE_CLASSES = {"AtomicMeasure", "WeightedVolume", "DensityMeasure", "RestrictedMeasure"}

    def _isinstance_sites(self, module):
        """(enclosing function, measure class) for every isinstance call
        whose class argument names a measure class."""
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        sites = []

        def visit(node, where):
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{where}.{child.name}" if where else child.name
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance"
                    and len(child.args) == 2
                ):
                    for name in ast.walk(child.args[1]):
                        if isinstance(name, ast.Name) and name.id in self.MEASURE_CLASSES:
                            sites.append((where, name.id))
                visit(child, inner)

        visit(tree, "")
        return sites

    def test_no_measure_isinstance_in_callers(self):
        from orliczhp import carleson, spaces

        assert self._isinstance_sites(spaces) == []
        assert self._isinstance_sites(carleson) == []

    def test_measure_module_checks_only_the_restricted_base(self):
        from orliczhp import measure

        assert self._isinstance_sites(measure) == [
            ("RestrictedMeasure.__post_init__", "RestrictedMeasure")
        ]
