import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp import carleson, growth, spaces
from orliczhp.corpus import random_atoms
from orliczhp.growth import (
    DEFAULT_GRID,
    BracketingError,
    ComposedInverse,
    GrowthDomainError,
    LogGrid,
    Power,
    PowerLog,
    ReciprocalReflected,
    Tabulated,
    _growing_at_edge,
    _pointwise,
    classify,
    conjugate,
    derived_pair,
    estimate_indices,
    nominal_upper_type,
)

E = math.e

# the C of the scaling form of the Dini criterion: 240 geometric values
_SCALING_CANDIDATES = np.geomspace(1.01, 1e6, 240)


def nabla2_via_scaling(phi):
    """Scaling form of the Dini criterion, the oracle for ``classify``'s
    Dini verdict: whether some C of ``_SCALING_CANDIDATES`` has
    ``phi(C t) >= 2 C phi(t)`` on the whole of ``DEFAULT_GRID``."""
    ts = DEFAULT_GRID.values()
    vals = phi(ts)
    with np.errstate(over="ignore"):
        return any(np.all(phi(c * ts) >= 2.0 * c * vals) for c in _SCALING_CANDIDATES)


class TestEval:
    def test_power_monomial(self):
        assert Power(2)(3.0) == 9.0

    def test_zero_everywhere(self):
        for phi in (Power(2), PowerLog(2, 1, E), derived_pair(Power(2), Power(4))[0],
                    derived_pair(Power(2), Power(4))[1],
                    Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))):
            assert phi(0.0) == 0.0

    def test_powerlog_value(self):
        # direct formula t^2 ln(e + t) at t = 1
        assert PowerLog(2, 1, E)(1.0) == pytest.approx(math.log(E + 1.0), rel=1e-14)

    def test_vectorized_eval(self):
        t = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(Power(3)(t), t ** 3)

    def test_negative_argument_rejected(self):
        with pytest.raises(GrowthDomainError):
            Power(2)(-1.0)

    def test_tabulated_interpolation_and_span(self):
        tab = Tabulated((0.0, 1.0, 2.0), (0.0, 2.0, 8.0))
        assert tab(0.5) == pytest.approx(1.0)
        with pytest.raises(GrowthDomainError):
            tab(3.0)

    def test_invalid_constructions(self):
        with pytest.raises(ValueError):
            Power(-1)
        with pytest.raises(ValueError):
            PowerLog(0.5, 1, E)
        with pytest.raises(ValueError):
            PowerLog(2, 1, 0.9)
        with pytest.raises(ValueError):
            Tabulated((0.5, 1.0), (0.0, 1.0))

    @pytest.mark.parametrize("make", [
        lambda: Power(math.inf),
        lambda: Power(math.nan),
        lambda: Power(2, math.inf),
        lambda: Power(2, math.nan),
        lambda: PowerLog(math.inf, 1, 3),
        lambda: PowerLog(2, math.inf, 3),
        lambda: PowerLog(2, 1, math.inf),
        lambda: PowerLog(math.nan, 1, 3),
        lambda: Tabulated((0.0, math.inf), (0.0, 1.0)),
        lambda: Tabulated((0.0, 1.0), (0.0, math.inf)),
        lambda: Tabulated((0.0, 1.0, math.nan), (0.0, 1.0, 2.0)),
    ])
    def test_nonfinite_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestInverse:
    def test_power_closed_form(self):
        assert Power(2).inverse(9.0) == pytest.approx(3.0, rel=1e-14)

    def test_inverse_at_zero(self):
        assert Power(2).inverse(0.0) == 0.0
        assert PowerLog(2, 1, E).inverse(0.0) == 0.0

    def test_powerlog_round_trip_of_eval_example(self):
        y = math.log(E + 1.0)
        assert PowerLog(2, 1, E).inverse(y, tol=1e-12) == pytest.approx(1.0, rel=1e-9)

    def test_round_trip_property(self):
        grid = np.geomspace(1e-5, 1e5, 41)
        functions = [
            Power(1.5),
            Power(3, scale=0.25),
            PowerLog(2, 1, E),
            ComposedInverse(outer=Power(4), inner=Power(2)),
            ReciprocalReflected(base=Power(2)),
        ]
        for phi in functions:
            y = np.asarray(phi(grid))
            t = phi.inverse(y, tol=1e-12)
            np.testing.assert_allclose(np.asarray(phi(t)), y, rtol=1e-9)

    def test_bracketing_failure_reported(self):
        tab = Tabulated((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(BracketingError):
            tab.inverse(5.0)


class TestConjugate:
    def test_quadratic_self_dual(self):
        # classical pair: phi(t) = t^2/2 has conjugate s^2/2.
        # oracle: dense-grid supremum of s*t - t^2/2
        phi = Power(2, scale=0.5)
        for s in (0.5, 2.0, 7.0):
            ts = np.linspace(0, 4 * s, 400001)
            oracle = float(np.max(s * ts - 0.5 * ts ** 2))
            assert conjugate(phi, s) == pytest.approx(oracle, rel=1e-8)
            assert conjugate(phi, s) == pytest.approx(s * s / 2, rel=1e-8)

    def test_identity_small_slope(self):
        assert conjugate(Power(1), 0.5) == 0.0

    def test_identity_unbounded(self):
        assert conjugate(Power(1), 2.0) == math.inf

    def test_biconjugation_recovers_power(self):
        # Legendre biconjugation: conjugating the numeric conjugate comes
        # back to the original within 1% at interior grid points
        for p in (2.0, 3.0):
            phi = Power(p, scale=1.0 / p)
            q = p / (p - 1.0)
            ss = np.geomspace(1e-3, 1e3, 121)
            first = np.array([conjugate(phi, float(s)) for s in ss])
            np.testing.assert_allclose(first, ss ** q / q, rtol=1e-6)
            dual_tab = Tabulated((0.0, *ss), (0.0, *first))
            # keep the scan inside the tabulated span, past every maximizer
            inner_grid = LogGrid(1e-3, 9.9e2, 700)
            for t in np.geomspace(0.1, 10.0, 9):
                bidual = conjugate(dual_tab, float(t), inner_grid)
                assert bidual == pytest.approx(phi(float(t)), rel=1e-2)

    def test_convexity_scan_rejects_concave(self):
        with pytest.raises(ValueError):
            conjugate(Power(0.5), 1.0)


class TestIndices:
    def test_power_exponent_recovered(self):
        lo, hi = estimate_indices(Power(3))
        assert lo == pytest.approx(3.0, abs=1e-6)
        assert hi == pytest.approx(3.0, abs=1e-6)

    def test_identity(self):
        lo, hi = estimate_indices(Power(1))
        assert lo == pytest.approx(1.0, abs=1e-6)
        assert hi == pytest.approx(1.0, abs=1e-6)

    def test_powerlog_range(self):
        # symbolic ratio 2 + t/((e+t) ln(e+t)) scanned on the same grid
        grid = LogGrid(1e-3, 1e3, 512)
        ts = grid.values()
        sym = 2.0 + ts / ((E + ts) * np.log(E + ts))
        lo, hi = estimate_indices(PowerLog(2, 1, E), grid)
        assert lo == pytest.approx(float(np.min(sym)), rel=1e-6)
        assert hi == pytest.approx(float(np.max(sym)), rel=1e-6)
        assert 2.0 < lo < hi < 3.0
        assert lo < 2.01


_ATTRS = ("doubling", "dini", "lower_index", "upper_index", "upper_type_estimate",
          "lower_type_estimate", "upper_type_constant", "tilde_conditions",
          "nabla2_passed", "tilde_passed")
_CLASSIFIED = [
    Power(2), Power(1.5, 0.25), PowerLog(2, 1, E ** 2), ComposedInverse(Power(4), Power(2)),
    ComposedInverse(Power(3), PowerLog(2, 1, E ** 2)), ReciprocalReflected(Power(2)),
    # t^2 on knots covering every argument of the scans, up to 1e12
    Tabulated((0.0, *np.geomspace(1e-7, 1e13, 21)), (0.0, *np.geomspace(1e-7, 1e13, 21) ** 2)),
]


def _read(cls, names):
    """The named attributes of ``cls`` read in the given order, as reprs
    (a float's repr is its exact value, sign of zero included)."""
    return {name: repr(getattr(cls, name)) for name in names}


class TestClassify:
    def test_power2_doubling_and_dini(self):
        cls = classify(Power(2))
        assert cls.doubling.passed and cls.doubling.constant == pytest.approx(4.0)
        # oracle: int_0^t s^2/s^2 ds = t, and t / (phi(t)/t) = 1 for phi = t^2
        assert cls.dini.passed
        assert cls.dini.constant == pytest.approx(1.0, rel=1e-6)

    def test_identity_dini_diverges(self):
        assert not classify(Power(1)).dini.passed

    def test_power3_submultiplicative_constants_one(self):
        cls = classify(Power(3))
        for verdict in cls.tilde_conditions.values():
            assert verdict.passed
            assert verdict.constant == pytest.approx(1.0, rel=1e-9)

    def test_index_order_invariant(self):
        for phi in (Power(1.5), Power(2), PowerLog(2, 1, E)):
            cls = classify(phi)
            assert cls.lower_index <= cls.upper_index + 1e-12

    def test_dini_pass_implies_lower_index_above_one(self):
        for phi in (Power(1.5), Power(2), Power(4), PowerLog(2, 1, E)):
            cls = classify(phi)
            if cls.nabla2_passed:
                assert cls.lower_index > 1.0

    def test_dini_verdict_matches_scaling_criterion(self):
        # the two characterizations must agree at the verdict level
        for p in (1.0, 1.5, 2.0, 4.0):
            dini = classify(Power(p)).dini.passed
            scaling = nabla2_via_scaling(Power(p))
            assert dini == scaling, f"p={p}: dini {dini} vs scaling {scaling}"

    def test_upper_type_witness_finite(self):
        for phi in (Power(2), Power(4), PowerLog(2, 1, E)):
            cls = classify(phi)
            assert math.isfinite(cls.upper_type_constant)

    def test_powerlog_is_tilde_member(self):
        cls = classify(PowerLog(2, 1, E ** 2))
        assert cls.tilde_passed

    @pytest.mark.parametrize("phi", [
        Power(1), Power(1.01), Power(2), PowerLog(2, 1, E ** 2),
        ComposedInverse(Power(4), Power(2)),
    ], ids=repr)
    def test_dini_alone_is_classify_dini(self, phi, monkeypatch):
        # reading .dini alone runs none of the index and tilde scans, and
        # gives what it gives after every other condition has been read
        calls = []
        for name in ("estimate_indices", "_tilde_product", "_tilde_ratio_power",
                     "_tilde_ratio_value"):
            real = getattr(growth, name)
            monkeypatch.setattr(growth, name,
                                lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        dini = classify(phi).dini
        assert calls == []
        whole = classify(phi)
        _read(whole, reversed(_ATTRS))
        assert len(calls) == 4 and whole.dini == dini

    @settings(max_examples=30, deadline=None)
    @given(phi=st.sampled_from(_CLASSIFIED), order=st.permutations(_ATTRS))
    def test_any_reading_order_is_bitwise_the_canonical(self, phi, order):
        canonical = _read(classify(phi), _ATTRS)
        shuffled = _read(classify(phi), order)
        assert shuffled == canonical

    def test_grid_values_shared_and_read_only(self):
        ts = LogGrid().values()
        assert ts is LogGrid().values() and not ts.flags.writeable
        with pytest.raises(ValueError):
            ts[0] = 1.0


class TestFixedGrids:
    """The fixed grids of the norms and testers are one read-only array each,
    from the ``LogGrid`` cache, bitwise the ``np.geomspace`` they replace."""

    @pytest.mark.parametrize("grid, old", [
        (spaces.default_height_grid, lambda: np.geomspace(1e-4, 1e4, 65)),
        (carleson.default_k_grid, lambda: np.geomspace(1e-4, 1e4, 201)),
    ], ids=["heights", "k"])
    def test_shared_read_only_bitwise(self, grid, old):
        ys = grid()
        assert ys is grid() and not ys.flags.writeable
        with pytest.raises(ValueError):
            ys[0] = 1.0
        assert ys.tobytes() == old().tobytes()

    def test_lambda_grid(self, monkeypatch):
        grids, lams = [], []

        def spy(*args):
            grids.append(growth._geomspace(*args))
            return grids[-1]

        class Recorded(Power):
            def __call__(self, t):
                lams.append(t)
                return super().__call__(t)

        monkeypatch.setattr(carleson, "_geomspace", spy)
        mu = random_atoms(np.random.default_rng(2))
        family = carleson.weak_hardy_family(Power(2), heights=(1.0,))
        for _ in range(2):
            carleson.weak_type_constant(mu, Recorded(4), family)
        assert len(grids) == 2 and grids[0] is grids[1] and not grids[0].flags.writeable
        assert np.array(lams).tobytes() == np.tile(np.geomspace(1e-3, 1e3, 25), 2).tobytes()

    def test_no_grid_at_import(self):
        src = str(Path(growth.__file__).resolve().parents[1])
        code = ("import orliczhp.cli, orliczhp.growth as g\n"
                "print(g._geomspace.cache_info().currsize)\n")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"



def _annulus_dini(phi, grid=DEFAULT_GRID):
    """Doubling verdict, and Dini verdict and quotients of the per-point
    rule: 8-point Gauss-Legendre over the 61 dyadic annuli below every grid
    point, with the decade-tail test at the mid-grid reference point."""
    ts = grid.values()
    doubling_grows = _growing_at_edge(ts, phi(2.0 * ts) / phi(ts), right=True)
    doubling = (not doubling_grows, (float(ts[-1]),) if doubling_grows else None)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    hi = ts[:, None] * 2.0 ** (-np.arange(61))[None, :]
    lo = 0.5 * hi
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    s = mid[:, :, None] + half[:, :, None] * nodes
    with np.errstate(over="ignore"):
        contrib = np.einsum("ijk,k->ij", phi(s) / s ** 2, weights) * half
    quot = contrib.sum(axis=1) * ts / phi(ts)
    ref = np.argmin(np.abs(np.log(ts)))
    a_j = contrib[ref]
    dsums = np.bincount(np.floor(np.arange(61) * math.log10(2.0)).astype(int), weights=a_j)
    tail_bad = dsums[-1] > 0.01 * a_j.sum() and dsums[-2] > 0.01 * a_j.sum()
    passed = not tail_bad and not _growing_at_edge(ts, quot, right=True)
    witness = None if passed else (float(ts[ref]) if tail_bad else float(ts[-1]),)
    return doubling, (passed, witness), quot


def _power_quotient(r):
    # int_0^t s^(r-2) ds * t / t^r = 1 / (r - 1) at every t
    return lambda t: 1.0 / (r - 1.0)


def _powerlog_quotient(t):
    """30-digit Dini quotient of t^2 log(e^2 + t)."""
    with mp.workdps(30):
        t = mp.mpf(t)
        c = mp.e ** 2
        return mp.quad(lambda s: mp.log(c + s), [0, t]) * t / (t ** 2 * mp.log(c + t))


# t^2 interpolated through geometric knots from 1e-30 (below every annulus)
# to 1e13 (above t_max^2, where the submultiplicativity scans evaluate)
_TAB_KNOTS = np.geomspace(1e-30, 1e13, 600)
_TAB_SQUARE = Tabulated((0.0, *_TAB_KNOTS), (0.0, *_TAB_KNOTS ** 2))


def _tabulated_quotient(t):
    """Exact Dini quotient of the interpolant, integrated from its first
    nonzero knot: on the piece through (k0, k0^2) and (k1, k1^2) the
    integrand is (k0 + k1)/s - k0 k1/s^2.  The linear piece below 1e-30
    adds under 1e-27, far below rounding."""
    with mp.workdps(30):
        t = mp.mpf(t)
        total, phi_t = mp.mpf(0), None
        for k0, k1 in zip(_TAB_KNOTS[:-1], _TAB_KNOTS[1:]):
            k0, k1 = mp.mpf(k0), mp.mpf(k1)
            top = min(k1, t)
            total += (k0 + k1) * mp.log(top / k0) - k0 * k1 * (1 / k0 - 1 / top)
            if t <= k1:
                phi_t = (k0 + k1) * t - k0 * k1
                break
        return total * t / phi_t


_DINI_CASES = [
    (Power(0.5), None),
    (Power(1), None),
    (ComposedInverse(Power(2), Power(2)), None),
    *[(Power(p), _power_quotient(p)) for p in (1.25, 1.5, 2.0, 3.0, 4.0, 6.0)],
    (PowerLog(2, 1, E ** 2), _powerlog_quotient),
    (ComposedInverse(Power(6), Power(2)), _power_quotient(3.0)),
    (ComposedInverse(Power(4), Power(3)), _power_quotient(4.0 / 3.0)),
    (ReciprocalReflected(ComposedInverse(Power(6), Power(2))), _power_quotient(3.0)),
    (ReciprocalReflected(ComposedInverse(Power(4), Power(3))), _power_quotient(4.0 / 3.0)),
    (_TAB_SQUARE, _tabulated_quotient),
]


class TestDiniCumulative:
    """The cumulative Dini rule against the per-point annulus rule."""

    @pytest.mark.parametrize("phi, exact", _DINI_CASES,
                             ids=[type(c[0]).__name__ + str(i) for i, c in enumerate(_DINI_CASES)])
    def test_against_annulus_oracle(self, phi, exact):
        cls = classify(phi)
        doubling, dini, quot = _annulus_dini(phi)
        assert (cls.doubling.passed, cls.doubling.witness) == doubling
        assert (cls.dini.passed, cls.dini.witness) == dini
        if exact is None:
            assert not dini[0]
            return
        # the quotient's exact value at the oracle's argmax grid point; the
        # cumulative rule starts every point at 2^-61 t_min instead of
        # 2^-61 t, so it truncates less.  The allowance is 2 ulp of rounding.
        target = float(exact(DEFAULT_GRID.values()[int(np.argmax(quot))]))
        slack = 2 * np.spacing(target)
        assert abs(cls.dini.constant - target) <= abs(np.max(quot) - target) + slack

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(1.2, 6.0))
    def test_power_constant_within_truncation(self, p):
        # the only error beyond rounding is the missing int_0^{2^-61 t_min},
        # a share (2^-61 t_min / t)^(p - 1) of the total, largest at t_max
        grid = DEFAULT_GRID
        c = classify(Power(p)).dini.constant
        trunc = (2.0 ** -61 * grid.t_min / grid.t_max) ** (p - 1)
        assert abs(c * (p - 1) - 1) <= 2 * trunc + 1e-13

    def test_point_budget(self):
        # a guard against slowdowns that does not depend on host speed: the
        # per-point annulus rule passed 271,280 points to phi per call
        class CountingPower(Power):
            points = 0

            def _eval(self, t):
                type(self).points += t.size
                return super()._eval(t)

        classify(CountingPower(2))
        assert CountingPower.points <= 40_000


class TestDerivedPair:
    def test_power_pair_composition(self):
        comp, refl = derived_pair(Power(2), Power(4))
        assert comp(3.0) == pytest.approx(9.0, rel=1e-12)
        assert refl(3.0) == pytest.approx(9.0, rel=1e-12)

    def test_powerlog_composition_value(self):
        comp, _ = derived_pair(Power(2), PowerLog(2, 1, E ** 2))
        # phi2(phi1^{-1}(t)) = t * ln(e^2 + sqrt(t)); at t = 1 this is ln(e^2 + 1)
        assert comp(1.0) == pytest.approx(math.log(E ** 2 + 1.0), rel=1e-12)

    def test_reflected_upper_type_inequality(self):
        # phi3(s t) <= s^q phi3(t) for s >= 1 with q the upper type of phi2
        comp, refl = derived_pair(Power(2), Power(4))
        q = nominal_upper_type(Power(4))
        s = np.geomspace(1.0, 1e4, 33)
        t = np.geomspace(1e-4, 1e4, 33)
        lhs = np.asarray(refl(s[:, None] * t[None, :]))
        rhs = s[:, None] ** q * np.asarray(refl(t))[None, :]
        assert np.all(lhs <= rhs * (1 + 1e-9))

    def test_reflected_upper_type_inequality_powerlog(self):
        # the composition inherits the upper type of the outer function,
        # so the scaling exponent here is the outer one
        comp, refl = derived_pair(Power(2), PowerLog(2, 1, E ** 2))
        q = nominal_upper_type(PowerLog(2, 1, E ** 2))
        s = np.geomspace(1.0, 1e3, 25)
        t = np.geomspace(1e-3, 1e3, 25)
        lhs = np.asarray(refl(s[:, None] * t[None, :]))
        rhs = s[:, None] ** q * np.asarray(refl(t))[None, :]
        assert np.all(lhs <= rhs * (1 + 1e-9))


# ---------------------------------------------------------------------------
# Evaluation without per-call dispatch
# ---------------------------------------------------------------------------

def _old_call(phi, t):
    """``GrowthFunction.__call__`` as it was, with ``np.any`` and ``np.where``,
    except that a NaN argument gives NaN (the old body gave 0)."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise GrowthDomainError("growth functions are defined on t >= 0")
    with np.errstate(over="ignore", divide="ignore"):
        out = np.where(arr > 0, phi._eval(np.maximum(arr, 1e-300)),
                       np.where(np.isnan(arr), np.nan, 0.0))
    return float(out) if arr.ndim == 0 else out


def _old_inverse(phi, y, tol=1e-12):
    """``GrowthFunction.inverse`` as it was, with ``np.any``, except that a NaN
    argument gives NaN (the old body gave 0 where it bisected or reflected):
    the other entries are inverted with each NaN read as 0."""
    arr = np.asarray(y, dtype=float)
    if np.any(arr < 0):
        raise GrowthDomainError("inverse arguments must be nonnegative")
    nan = np.isnan(arr)
    out = np.where(nan, np.nan, phi._inverse(np.where(nan, 0.0, arr), tol))
    return float(out) if arr.ndim == 0 else out


def _outcome(fn, *args):
    """The type, shape and bytes of a result, or the type of the error."""
    try:
        with np.errstate(all="ignore"):
            out = fn(*args)
    except (GrowthDomainError, BracketingError) as exc:
        return type(exc)
    return type(out), np.shape(out), np.asarray(out).tobytes()


_KINDS = [
    Power(2),
    Power(2.5, 3.0),
    PowerLog(2, 1, E ** 2),
    ComposedInverse(Power(4), Power(2)),
    ComposedInverse(Power(2), PowerLog(2, 1, E ** 2)),
    ReciprocalReflected(Power(2)),
    ReciprocalReflected(PowerLog(2, 1, E ** 2)),
    Tabulated((0.0, 1.0, 2.0), (0.0, 1.0, 4.0)),
]
_KIND_IDS = [f"{type(phi).__name__}{i}" for i, phi in enumerate(_KINDS)]
_EDGES = [0.0, 1e-310, math.inf, math.nan, 0.3, 1.7, -0.0]
_INPUTS = ([*_EDGES, np.float64(0.3), -1.0]
           + [np.array(_EDGES[i:] + _EDGES[:i]) for i in range(2)]
           + [np.array(_EDGES[:6]).reshape(2, 3), np.array([[0.3, -1e-300]])])


class TestCallBitwise:
    """``__call__`` and ``inverse`` without ``np.any``/``np.where`` dispatch
    give what the old bodies gave: the same values bit for bit, the same
    result types, and the same errors."""

    @pytest.mark.parametrize("phi", _KINDS, ids=_KIND_IDS)
    @pytest.mark.parametrize("t", _INPUTS, ids=range(len(_INPUTS)))
    def test_call(self, phi, t):
        assert _outcome(phi, t) == _outcome(_old_call, phi, t)

    @pytest.mark.parametrize("phi", _KINDS, ids=_KIND_IDS)
    @pytest.mark.parametrize("y", _INPUTS, ids=range(len(_INPUTS)))
    def test_inverse(self, phi, y):
        assert _outcome(phi.inverse, y) == _outcome(_old_inverse, phi, y)

    def test_nan_is_not_zero(self):
        # an inf * 0 upstream must not read as a zero modular
        assert math.isnan(Power(2)(math.nan))
        assert np.isnan(PowerLog(2, 1, 8)(np.array([math.nan]))).all()

    def test_nan_inverse_is_nan(self):
        # bisected and reflected inverses, as the closed forms
        log = PowerLog(2, 1, 8)
        assert math.isnan(log.inverse(math.nan))
        got = log.inverse(np.array([math.nan, 4.0]))
        assert math.isnan(got[0]) and got[1] == pytest.approx(1.338, abs=1e-3)
        assert got[1] == log.inverse(4.0)
        assert math.isnan(ReciprocalReflected(Power(2)).inverse(math.nan))
        assert math.isnan(ReciprocalReflected(log).inverse(math.nan))

    def test_nan_is_not_bisected(self, monkeypatch):
        log = PowerLog(2, 1, 8)
        calls = []
        monkeypatch.setattr(PowerLog, "_eval", lambda self, t: calls.append(t) or t)
        assert math.isnan(log.inverse(math.nan)) and calls == []


# every kind of special double, then the whole double range; a closed-form
# inverse keeps a NaN's payload, so the inverse draws NaN as ``math.nan`` only
_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-301,
                            math.inf, -math.inf, math.nan, 1e154, 1e200,
                            1.7976931348623157e308, -1.0, -5e-324])
_DOUBLES = st.one_of(_SPECIAL, st.floats())
_INVERSE_DOUBLES = st.one_of(_SPECIAL, st.floats(allow_nan=False))


def _zero_d_forms(x):
    """``x`` as a Python float, a numpy float, a 0-d array, and an int where
    it is integral."""
    forms = [x, np.float64(x), np.array(x)]
    if math.isfinite(x) and x == int(x):
        forms.append(int(x))
    return forms


def _quietly(fn, *args):
    """Call ``fn`` with every warning an error; the growth errors are outcomes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn(*args)
        except (GrowthDomainError, BracketingError):
            pass


class TestScalarBranch:
    """A 0-d argument takes the float branch of ``__call__`` and ``inverse``:
    bitwise the old 0-d call, whatever form the scalar comes in."""

    @settings(max_examples=60, deadline=None)
    @given(x=_DOUBLES)
    @pytest.mark.parametrize("phi", _KINDS, ids=_KIND_IDS)
    def test_call(self, phi, x):
        want = _outcome(_old_call, phi, x)
        for form in _zero_d_forms(x):
            assert _outcome(phi, form) == want
            if x < 0:
                with pytest.raises(GrowthDomainError):
                    phi(form)
            _quietly(phi, form)

    @settings(max_examples=60, deadline=None)
    @given(x=_INVERSE_DOUBLES)
    @pytest.mark.parametrize("phi", _KINDS, ids=_KIND_IDS)
    def test_inverse(self, phi, x):
        want = _outcome(_old_inverse, phi, x)
        for form in _zero_d_forms(x):
            assert _outcome(phi.inverse, form) == want
            if x < 0:
                with pytest.raises(GrowthDomainError):
                    phi.inverse(form)
            _quietly(phi.inverse, form)

    def test_overflow_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Power(2)(1e200) == math.inf
            assert Power(2)(np.float64(1e200)) == math.inf
            assert type(Power(2)(1e200)) is float


class TestPointwise:
    """``_pointwise`` kinds map a stacked array bitwise as its rows."""

    @pytest.mark.parametrize("phi", [phi for phi in _KINDS if _pointwise(phi)],
                             ids=[i for phi, i in zip(_KINDS, _KIND_IDS) if _pointwise(phi)])
    def test_stacked_rows(self, phi):
        rows = np.geomspace(1e-3, 1.9, 60).reshape(5, 12)
        whole = phi(rows)
        assert whole.tobytes() == np.array([phi(row) for row in rows]).tobytes()

    def test_kinds(self):
        log = PowerLog(2, 1, E ** 2)
        assert [_pointwise(phi) for phi in _KINDS] == [
            True, True, True, True, False, True, True, True]
        assert not _pointwise(ReciprocalReflected(log), inverse=True)
        assert _pointwise(ComposedInverse(log, Power(2)))
