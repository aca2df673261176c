"""Atom sums as one array: ``spaces.kernel_modulars`` on measures with atoms.

The kernel sweep and a power ``phi2``'s embedding members take their
modulars from one (kernels x atoms) array.  Every row must be bitwise the
``modular_halfplane`` call it replaces, and every member K the one the
per-member loop found.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp import carleson, measure, spaces
from orliczhp.carleson import (
    _MODULAR_TIE_BAND,
    bergman_test_family,
    default_k_grid,
    default_sample_points,
    embedding_constant,
    hardy_test_family,
    kernel_testing_constant,
    weak_hardy_family,
    weak_type_constant,
)
from orliczhp.corpus import random_atoms
from orliczhp.growth import ComposedInverse, Power, PowerLog, _pointwise
from orliczhp.measure import AtomicMeasure, CarlesonBox, RestrictedMeasure, WeightedVolume
from orliczhp.spaces import CarlesonKernel, kernel_modulars, modular_halfplane

E2 = math.e ** 2
PHI2 = [Power(2), Power(3, 0.5), Power(1.5, 4.0), PowerLog(2, 1, E2)]
FAMILY_HEIGHTS = (0.25, 1.0, 4.0)


@st.composite
def atom_measures(draw):
    """Default ``random_atoms`` clouds (the empty one included) with a share
    of their masses zeroed, some cut to a box."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([0, 1, 5, 12]))
    xs, ys, ms = random_atoms(rng, n_atoms=n).arrays()
    ms = np.where(rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0])), 0.0, ms)
    mu = AtomicMeasure(tuple(xs), tuple(ys), tuple(ms))
    if draw(st.booleans()):
        center = draw(st.floats(-8.0, 8.0))
        mu = RestrictedMeasure(mu, CarlesonBox(center, draw(st.sampled_from([0.5, 4.0, 32.0]))))
    return mu


def hexes(values):
    return [float(v).hex() for v in values]


def per_member_loop(mu, phi2, family):
    """The power path of ``embedding_constant`` as the per-member loop made
    it: one ``modular_halfplane`` per member at the member's norm."""
    ks = default_k_grid()
    out = []
    for member in family:
        m1 = modular_halfplane(member.f, phi2, mu, scale=member.source_norm)
        fits = np.flatnonzero(m1 / ks ** phi2.p <= 1.0 + _MODULAR_TIE_BAND)
        out.append((member.label, float(ks[fits[0]]) if fits.size else math.inf))
    return tuple(out)


class TestRowsEqualTheLoop:
    @settings(max_examples=60, deadline=None)
    @given(mu=atom_measures(), phi1=st.sampled_from([Power(1), Power(2), Power(2.5, 3.0)]),
           phi2=st.sampled_from(PHI2), s=st.sampled_from([1.0, 2.0, 2.5]))
    def test_kernel_sweep(self, mu, phi1, phi2, s):
        points = default_sample_points(mu)
        kernels = [CarlesonKernel(z, phi1, s) for _, z in points]
        loop = [modular_halfplane(f, phi2, mu) for f in kernels]
        assert hexes(kernel_modulars(kernels, phi2, mu)) == hexes(loop)
        want = measure._fold((h, value, z) for (h, z), value in zip(points, loop))
        assert kernel_testing_constant(mu, phi1, phi2, s) == want

    @settings(max_examples=40, deadline=None)
    @given(mu=atom_measures(), phi2=st.sampled_from(PHI2), s=st.sampled_from([1.0, 2.0, 2.5]),
           scales=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6))
    def test_scaled_rows(self, mu, phi2, s, scales):
        kernels = [CarlesonKernel(complex(0.5 * i - 1.0, 2.0 ** (i - 3)), Power(2), s)
                   for i in range(len(scales))]
        loop = [modular_halfplane(f, phi2, mu, scale=sc) for f, sc in zip(kernels, scales)]
        assert hexes(kernel_modulars(kernels, phi2, mu, scales=scales)) == hexes(loop)

    @settings(max_examples=40, deadline=None)
    @given(mu=atom_measures(), phi1=st.sampled_from([Power(1), Power(2)]),
           phi2=st.sampled_from(PHI2[:3]), s=st.sampled_from([1.0, 2.0, 2.5]))
    def test_power_members(self, mu, phi1, phi2, s):
        family = (hardy_test_family(phi1, FAMILY_HEIGHTS) if s == 1.0
                  else bergman_test_family(phi1, s - 2.0, FAMILY_HEIGHTS))
        got = embedding_constant(mu, phi2, family).per_member
        assert got == per_member_loop(mu, phi2, family)

    def test_no_kernels(self):
        mu = random_atoms(np.random.default_rng(0))
        assert list(kernel_modulars([], Power(2), mu)) == []

    def test_nonpositive_scale_is_refused(self):
        mu = random_atoms(np.random.default_rng(0))
        with pytest.raises(ValueError, match="scale must be positive"):
            list(kernel_modulars([CarlesonKernel(1j, Power(2), 1.0)], Power(2), mu, scales=[0.0]))


def _refuse(*args, **kwargs):
    raise AssertionError("a per-point modular_halfplane call")


class TestOneArrayPerSweep:
    @pytest.fixture
    def mu(self):
        xs, ys, ms = random_atoms(np.random.default_rng(5)).arrays()
        return AtomicMeasure(tuple(xs), tuple(ys), tuple(np.where(ms > 1.0, ms, 0.0)))

    def test_atoms_make_no_modular_call(self, mu, monkeypatch):
        family = hardy_test_family(Power(2), FAMILY_HEIGHTS)
        restricted = RestrictedMeasure(mu, CarlesonBox(0.0, 8.0))
        monkeypatch.setattr(spaces, "modular_halfplane", _refuse)
        monkeypatch.setattr(carleson, "modular_halfplane", _refuse)
        for nu in (mu, restricted):
            kernel_testing_constant(nu, Power(2), Power(3), 1.0)
            embedding_constant(nu, Power(3), family)

    def test_other_cases_keep_the_loop(self, mu, monkeypatch):
        # a volume has no atoms, and a phi2 with a bisected inverse inside is
        # not pointwise: both run one modular_halfplane per base point
        calls = []
        real = spaces.modular_halfplane
        monkeypatch.setattr(spaces, "modular_halfplane",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        not_pointwise = ComposedInverse(Power(2), PowerLog(2, 1, E2))
        assert not _pointwise(not_pointwise)
        for nu, phi2 in ((WeightedVolume(1.0), Power(3)), (mu, not_pointwise)):
            calls.clear()
            sweep = kernel_testing_constant(nu, Power(2), phi2, 1.0)
            assert sweep.verdict.reason != "divergent"
            assert len(calls) == len(default_sample_points(nu))


class TestWeakTypeWeights:
    def test_one_phi2_call_per_lambda(self):
        calls = []

        class Counted(Power):
            def __call__(self, t):
                calls.append(t)
                return super().__call__(t)

        mu = random_atoms(np.random.default_rng(2))
        family = weak_hardy_family(Power(2), heights=FAMILY_HEIGHTS)
        lams = np.geomspace(1e-3, 1e3, 25)
        got = weak_type_constant(mu, Counted(4), family, lambda_grid=lams)
        assert len(calls) == len(lams)
        assert got == weak_type_constant(mu, Power(4), family, lambda_grid=lams)
