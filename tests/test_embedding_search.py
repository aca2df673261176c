"""The grid searches: ``_first_admissible`` against a plain bisection, the
power-``phi2`` embedding constant against closed forms, linear scans and the
search over real modulars it replaced, its tie band at a modular of 1, the
weak-type constant against a per-pair reference, and the height-by-height
nontangential maximal function against per-probe evaluation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orliczhp import carleson, spaces
from orliczhp.carleson import (
    _first_admissible,
    adapted_heights,
    bergman_test_family,
    default_k_grid,
    embedding_constant,
    hardy_test_family,
    verify_equivalence,
    weak_type_constant,
)
from orliczhp.config import parse_density
from orliczhp.corpus import random_atoms
from orliczhp.growth import Power, PowerLog
from orliczhp.integrals import beta
from orliczhp.maximal import nontangential_maximal
from orliczhp.measure import (
    AtomicMeasure,
    BoxFamily,
    DensityMeasure,
    PixelGrid,
    Verdict,
    WeightedVolume,
    pixel_masses,
)
from orliczhp.spaces import modular_halfplane

KS = default_k_grid()


def _bisection_reference(n, ok):
    """The search as a plain loop: last index, first, midpoints."""
    if not ok(n - 1):
        return None
    lo, hi = 0, n - 1
    if ok(lo):
        hi = lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _recording(t):
    probes = []

    def ok(i):
        probes.append(i)
        return i >= t

    return ok, probes


@st.composite
def _searches(draw):
    n = draw(st.integers(1, 300))
    t = draw(st.integers(0, n))  # t == n: no index is admissible
    return n, t


class TestFirstAdmissible:
    @settings(max_examples=200, deadline=None)
    @given(_searches())
    def test_unguessed_probe_order_is_the_bisection(self, case):
        n, t = case
        ok, probes = _recording(t)
        ref_ok, ref_probes = _recording(t)
        assert _first_admissible(n, ok) == _bisection_reference(n, ref_ok)
        assert probes == ref_probes
        assert probes[0] == n - 1


def _volume_k(member, q, gamma):
    """Closed-form K* for a Hardy-kernel member on ``y^gamma dA`` and
    ``phi2 = t^q``: the kernel power integral, to the ``1/q``, over the norm."""
    amp, y0 = member.f.amplitude, member.f.z0.imag
    integral = (amp ** q * beta(0.5, (2.0 * q - 1.0) / 2.0)
                * beta(gamma + 1.0, 2.0 * q - gamma - 2.0) * y0 ** (gamma + 2.0))
    return integral ** (1.0 / q) / member.source_norm


class TestPowerEmbeddingSearch:
    @pytest.mark.parametrize("p, q, gamma", [(2.0, 2.0, 0.0), (1.0, 3.0, 0.0),
                                             (2.0, 3.0, 1.0)])
    def test_volume_members_match_closed_form(self, p, q, gamma, monkeypatch):
        fam = hardy_test_family(Power(p), heights=(0.25, 1.0, 4.0))
        calls = []
        real = spaces.modular_halfplane

        def counting(*args, **kwargs):
            calls.append(kwargs.get("scale"))
            return real(*args, **kwargs)

        monkeypatch.setattr(spaces, "modular_halfplane", counting)
        res = embedding_constant(WeightedVolume(gamma), Power(q), fam)
        for member, (_, k) in zip(fam, res.per_member):
            want = KS[np.searchsorted(KS, _volume_k(member, q, gamma), side="left")]
            assert k == want
        assert len(calls) == len(fam)

    def test_powerlog_atoms_match_linear_scan(self):
        rng = np.random.default_rng(3)
        mu = AtomicMeasure(tuple(rng.uniform(-2, 2, 10)), tuple(10 ** rng.uniform(-2, 1, 10)),
                           tuple(rng.uniform(0.1, 2.0, 10)))
        phi2 = PowerLog(2.0, 1.0, math.e ** 2)
        fam = hardy_test_family(Power(2), heights=(0.5, 2.0))
        res = embedding_constant(mu, phi2, fam)
        xs, ys, ms = mu.arrays()
        for member, (_, k) in zip(fam, res.per_member):
            vals = member.f.abs_value(xs, ys)
            admissible = [kk for kk in KS
                          if float(np.sum(ms * phi2(vals / (kk * member.source_norm)))) <= 1.0]
            assert k == (admissible[0] if admissible else math.inf)

    def test_empty_measure_is_first_grid_value(self):
        fam = hardy_test_family(Power(2), heights=(1.0,))
        res = embedding_constant(AtomicMeasure.empty(), Power(3), fam)
        assert res.per_member[0][1] == pytest.approx(1e-4)

    @pytest.mark.parametrize("phi2", [Power(2), PowerLog(2.0, 1.0, math.e ** 2)])
    def test_member_beyond_grid_is_infinite(self, phi2):
        fam = hardy_test_family(Power(2), heights=(1.0,))
        mu = AtomicMeasure((0.0,), (1.0,), (1e12,))
        res = embedding_constant(mu, phi2, fam)
        assert res.per_member[0][1] == math.inf
        assert res.verdict == Verdict("unbounded_member")


class TestModularTie:
    """Matched volumes have a modular of exactly 1 at K = 1 (a grid point):
    a few ulps of quadrature rounding must not move K, a real excess must."""

    @pytest.mark.parametrize("factor, want", [
        (1.0, 1.0),
        (1.0 + 2 * 2.0 ** -52, 1.0),
        (1.0 - 2 * 2.0 ** -53, 1.0),
        (1.0 + 1e-12, KS[101]),
    ])
    def test_tie_band(self, factor, want, monkeypatch):
        assert KS[100] == 1.0
        fam = bergman_test_family(Power(2), 0.0, heights=(0.25, 1.0, 4.0))
        real = spaces.modular_halfplane
        monkeypatch.setattr(spaces, "modular_halfplane",
                            lambda *args, **kwargs: factor * real(*args, **kwargs))
        res = embedding_constant(WeightedVolume(0.0), Power(2), fam)
        assert [k for _, k in res.per_member] == [want] * len(fam)


def test_matched_volume_members_keep_their_grid_k():
    # bergman p = 2, q = 3, alpha = 1 on y^2.5 dA, where s q / p = 2 + 2.5:
    # every member's modular is the same, and so is its grid K
    rep = verify_equivalence(WeightedVolume(2.5), Power(2), Power(3), mode="bergman", alpha=1.0)
    assert [k for _, k in rep.embedding.per_member] == [0.6309573444801936] * 9
    assert rep.embedding.verdict == Verdict()
    assert rep.coherent and rep.carleson is True


def _real_modular_search(mu, phi2, member):
    """The search the power path replaced: ``_bisection_reference`` over the
    K grid, with the real modular at each probed K deciding.  Returns that K
    and whether a probed modular lay within 1e-12 of 1, where the real
    modular and the homogeneous one may round to different sides."""
    probed = []

    def ok(i):
        probed.append(modular_halfplane(member.f, phi2, mu,
                                        scale=KS[i] * member.source_norm))
        return probed[-1] <= 1.0 + carleson._MODULAR_TIE_BAND

    i = _bisection_reference(len(KS), ok)
    return (math.inf if i is None else float(KS[i])), any(abs(v - 1.0) <= 1e-12 for v in probed)


def _assert_matches_real_search(mu, phi2, family):
    res = embedding_constant(mu, phi2, family)
    for member, (_, k) in zip(family, res.per_member):
        want, tie = _real_modular_search(mu, phi2, member)
        assert k == want or tie, (member.label, k, want)


def _family(mode, p, heights):
    return (hardy_test_family(Power(p), heights) if mode == "hardy"
            else bergman_test_family(Power(p), 0.0, heights))


class TestHomogeneousK:
    """A power ``phi2``'s member K read off one modular by homogeneity is the
    K that real modulars at each grid K decide, away from ties at 1."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), index=st.integers(0, 5),
           p=st.sampled_from([1.0, 2.0]), mode=st.sampled_from(["hardy", "bergman"]))
    @example(seed=7, index=4, p=2.0, mode="hardy")     # the fifth cloud of rng([7, 1])
    @example(seed=7, index=4, p=1.0, mode="bergman")
    @example(seed=0, index=5, p=2.0, mode="bergman")   # the sixth cloud of rng([0, 1])
    @example(seed=0, index=5, p=1.0, mode="hardy")
    def test_default_atom_clouds(self, seed, index, p, mode):
        rng = np.random.default_rng([seed, 1])
        clouds = [random_atoms(rng) for _ in range(index + 1)]
        mu = clouds[index]
        family = _family(mode, p, adapted_heights(mu))
        for q in (2.0, 3.0, 4.0):
            _assert_matches_real_search(mu, Power(q), family)

    @pytest.mark.parametrize("p, q, mode", [(2.0, 4.0, "hardy"), (1.0, 2.0, "hardy"),
                                            (1.0, 3.0, "hardy"), (2.0, 2.0, "bergman"),
                                            (2.0, 3.0, "bergman"), (1.0, 2.0, "bergman")])
    @pytest.mark.parametrize("delta", [0.0, -0.05, 0.05])
    def test_weighted_volumes_near_critical(self, p, q, mode, delta):
        gamma_c = (q / p if mode == "hardy" else 2.0 * q / p) - 2.0
        family = _family(mode, p, (0.25, 1.0, 4.0))
        _assert_matches_real_search(WeightedVolume(gamma_c + delta), Power(q), family)


class TestDivergentDensity:
    """On ``1/y dx dy`` a power modular diverges at y = 0 at every scale, so
    no K is admissible.  A search over real modulars settled on a large
    finite K, where the modular fell under the divergence probe's absolute
    floor; the homogeneous K agrees with the box and kernel testers."""

    MU = DensityMeasure(parse_density("1/y"), "1/y")

    def test_every_member_is_unbounded(self):
        fam = hardy_test_family(Power(2), heights=(0.25, 1.0, 4.0))
        res = embedding_constant(self.MU, Power(4), fam)
        assert [k for _, k in res.per_member] == [math.inf] * len(fam)
        assert res.verdict == Verdict("unbounded_member")

    def test_equivalence_verdicts_unchanged(self):
        rep = verify_equivalence(self.MU, Power(2), Power(4), box_family=BoxFamily(-5, 5))
        assert rep.verdicts == {"box": False, "kernel": False, "embedding": False}
        assert rep.coherent
        assert rep.embedding.verdict == Verdict("unbounded_member")
        assert rep.embedding.family_constant == math.inf


def _weak_reference(mu, phi2, family, lams, cs, pixels):
    """The weak-type constant recomputed per (C, lambda) pair, as a loop."""
    out = []
    for member in family:
        def mass_above(t):
            atoms = mu.atoms()
            if atoms is not None:
                xs, ys, ms = atoms.arrays()
                if xs.size == 0:
                    return 0.0
                return float(ms[member.f.abs_value(xs, ys) > t].sum())
            masses = pixel_masses(mu, pixels)
            xc, yc = pixels.centers()
            return float(masses[member.f.abs_value(xc[:, None], yc[None, :]) > t].sum())

        c_best = math.inf
        for c in cs:
            if all(phi2(lam) * mass_above(c * lam * member.source_norm) <= 1.0
                   for lam in lams):
                c_best = float(c)
                break
        out.append((member.label, c_best))
    return tuple(out)


class TestWeakTypeOnce:
    @pytest.mark.parametrize("mu", [
        AtomicMeasure((0.0, 0.5, -1.0), (0.5, 1.0, 0.1), (1.0, 0.3, 2.0)),
        AtomicMeasure.empty(),
        WeightedVolume(0.0),
    ])
    def test_matches_per_pair_reference(self, mu):
        fam = hardy_test_family(Power(2), heights=(0.5, 2.0))
        lams = np.geomspace(1e-2, 1e2, 9)
        pixels = PixelGrid(-8.0, 8.0, 8.0, 64, 32)
        got = weak_type_constant(mu, Power(2), fam, lams, pixels)
        assert got.per_member == _weak_reference(mu, Power(2), fam, lams, KS, pixels)


class TestNontangentialRows:
    def test_rows_equal_per_probe(self):
        f = hardy_test_family(Power(2), heights=(1.0,))[0].f
        x = np.linspace(-10.0, 10.0, 150)
        seen = []

        def f_abs(t, y):
            seen.append(t.shape)
            return f.abs_value(t, y)

        star = nontangential_maximal(f_abs, x)
        single = np.array([nontangential_maximal(f.abs_value, xi)[0] for xi in x])
        assert np.array_equal(star, single)
        assert seen == [(150, 33)] * 385
        # the whole probe x height x aperture cone at once
        ys = np.geomspace(1e-3, 1e3, 385)
        u = np.linspace(-1.0, 1.0, 33) * (1.0 - 1e-9)
        t = x[:, None, None] + ys[None, :, None] * u[None, None, :]
        whole = f.abs_value(t, np.broadcast_to(ys[None, :, None], t.shape))
        assert np.array_equal(star, whole.max(axis=(1, 2)))
