"""The row-batched double-exponential driver: ``sinh_sinh``, ``exp_sinh``,
``integrate_line`` and ``hardy_norm`` against loop copies of the one-row
level loop and of the per-height Hardy norm, bitwise; per-row convergence
and freezing; and the closed form of every row's Hardy line modular.

The double-exponential maps are shared by the row-batched level loop and
the product rule.  The nested, window-trimmed product rule
(``integrate_halfplane``, ``integrate_box``) is held to a loop copy of the
full-grid rule that rebuilds every level from its earlier node generators
(1e-14 relative, same ``converged`` flags), ``tanh_sinh`` to a loop copy of
its earlier level loop (1e-15 relative, same ``converged`` flags), and the
row-batched density box integral bitwise to its earlier per-height loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp.config import parse_density
from orliczhp.growth import Power, PowerLog
from orliczhp.integrals import (
    QuadratureSpec,
    beta,
    exp_sinh,
    integrate_box,
    integrate_halfplane,
    integrate_line,
    integrate_line_rows,
    sinh_sinh,
    tanh_sinh,
)
from orliczhp.maximal import StepFunction1D
from orliczhp.measure import CarlesonBox, DensityMeasure, RestrictedMeasure
from orliczhp.spaces import (
    BergmanKernel,
    HardyKernel,
    PoissonOfStep,
    default_height_grid,
    hardy_norm,
    luxembourg,
)

E2 = math.e ** 2
PHIS = [Power(1), Power(2), Power(3), PowerLog(2, 1, E2)]


# -- loop copies of the one-row code ----------------------------------------

def _ref_doubly_exponential(f, nodes_weights, abs_tol, rel_tol, max_level=11, t_cut=6.0):
    prev = None
    value = 0.0
    err = math.inf
    converged = False
    for level in range(2, max_level + 1):
        h = 2.0 ** (-level)
        j = np.arange(-int(t_cut / h), int(t_cut / h) + 1)
        if prev is not None:
            j = j[j % 2 != 0]
        t = j * h
        x, dxdt = nodes_weights(t)
        with np.errstate(over="ignore", invalid="ignore"):
            fv = np.asarray(f(x), dtype=float)
            prod = fv * (dxdt * h)
        prod = np.where((fv == 0.0) | (dxdt * h == 0.0), 0.0, prod)
        contrib = float(np.sum(prod))
        if prev is None:
            prev = contrib
            value = contrib
            continue
        value = 0.5 * prev + contrib
        err = abs(value - prev)
        if err <= abs_tol + rel_tol * abs(value):
            converged = True
            prev = value
            break
        prev = value
    error = min(err, abs(value)) if math.isfinite(value) else math.inf
    return value, error, converged


def _ref_sinh_sinh(f, abs_tol=1e-10, rel_tol=1e-9):
    def nw(t):
        ps = math.pi * np.sinh(t)
        return 0.5 * np.sinh(ps), 0.5 * math.pi * np.cosh(t) * np.cosh(ps)

    return _ref_doubly_exponential(f, nw, abs_tol, rel_tol)


def _ref_exp_sinh(f, abs_tol=1e-10, rel_tol=1e-9):
    def nw(t):
        ps = math.pi * np.sinh(t)
        y = np.exp(ps)
        return y, math.pi * np.cosh(t) * y

    return _ref_doubly_exponential(f, nw, abs_tol, rel_tol)


def _ref_integrate_line(f, spec=QuadratureSpec(), x_center=0.0, scale=1.0):
    if x_center != 0.0 or scale != 1.0:
        v, e, c = _ref_sinh_sinh(lambda t: f(x_center + scale * t), spec.abs_tol, spec.rel_tol)
        return v * scale, e * scale, c
    return _ref_sinh_sinh(f, spec.abs_tol, spec.rel_tol)


def _ref_hardy_norm(f, phi, spec=QuadratureSpec()):
    """Per-height Hardy norm: one line integral per height of the grid."""
    x_scale = float(getattr(f, "natural_scale", 1.0))
    x_center = float(getattr(f, "natural_center", 0.0))
    f_abs = f.abs_value if hasattr(f, "abs_value") else f
    ys = default_height_grid()

    def line_modular(slice_abs, scale, width):
        return _ref_integrate_line(
            lambda x: phi(np.abs(slice_abs(x)) / scale), spec, x_center, width
        )[0]

    modulars = np.empty(ys.size)
    luxes = np.empty(ys.size)
    for i, y in enumerate(ys):
        slice_abs = lambda x, y=y: f_abs(x, np.full_like(np.asarray(x, float), y))
        width = x_scale + y
        modulars[i] = line_modular(slice_abs, 1.0, width)
        if isinstance(phi, Power):
            luxes[i] = modulars[i] ** (1.0 / phi.p)
        else:
            luxes[i] = luxembourg(lambda lam: line_modular(slice_abs, lam, width))
    i = int(np.argmax(modulars))
    return float(np.max(modulars)), float(np.max(luxes)), float(ys[i])


def _assert_same_norm(f, phi):
    got = hardy_norm(f, phi)
    want = _ref_hardy_norm(f, phi)
    assert (got.modular_sup, got.luxembourg_sup, got.y_at_modular_max) == want
    assert got.heights == tuple(default_height_grid())


# -- hardy_norm, bitwise -----------------------------------------------------

class TestHardyNormBitwise:
    @settings(max_examples=40, deadline=None)
    @given(
        x0=st.floats(-4.0, 4.0),
        k=st.integers(-10, 10),
        phi=st.sampled_from(PHIS[:3]),
    )
    def test_power_kernels(self, x0, k, phi):
        _assert_same_norm(HardyKernel(complex(x0, 2.0 ** k), phi), phi)

    @settings(max_examples=4, deadline=None)
    @given(x0=st.floats(-4.0, 4.0), k=st.integers(-10, 10))
    def test_powerlog_kernels(self, x0, k):
        phi = PHIS[3]
        _assert_same_norm(HardyKernel(complex(x0, 2.0 ** k), phi), phi)

    def test_simple_pole(self):
        f = lambda x, y: (x ** 2 + (np.asarray(y) + 1.0) ** 2) ** -0.5
        _assert_same_norm(f, Power(2))

    def test_zero_function(self):
        zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)
        _assert_same_norm(zero, Power(2))
        assert hardy_norm(zero, Power(2)).luxembourg_sup == 0.0

    def test_poisson_of_step(self):
        g = StepFunction1D(np.array([-1.0, 0.0, 2.0]), np.array([3.0, -1.0]))
        _assert_same_norm(PoissonOfStep(g), Power(2))


# -- the one-row engines, bitwise --------------------------------------------

LINE_INTEGRANDS = [
    lambda x: np.exp(-x * x),
    lambda x: 1.0 / (x * x + 1.0),
    lambda x: (x * x + 1.0) ** -2,
    lambda x: (x * x + 0.25) ** (-1.5 / 2),
    lambda x: 0.3 / ((x - 0.3) ** 2 + 0.09),
    lambda x: ((x >= 0) & (x <= 1)).astype(float),
    lambda x: x * 0.0,
]
HALF_LINE_INTEGRANDS = [
    lambda u: u / (1 + u) ** 3,
    lambda y: y / (2.0 + y) ** 3,
    lambda y: 1.0 / np.sqrt(y) / (1.0 + y),
]


def _triple(res):
    return res.value, res.error, res.converged


class TestOneRowBitwise:
    @pytest.mark.parametrize("i", range(len(LINE_INTEGRANDS)))
    @pytest.mark.parametrize("tols", [(1e-10, 1e-9), (1e-14, 1e-14)])
    def test_sinh_sinh(self, i, tols):
        f = LINE_INTEGRANDS[i]
        assert _triple(sinh_sinh(f, *tols)) == _ref_sinh_sinh(f, *tols)

    @pytest.mark.parametrize("i", range(len(HALF_LINE_INTEGRANDS)))
    def test_exp_sinh(self, i):
        f = HALF_LINE_INTEGRANDS[i]
        assert _triple(exp_sinh(f)) == _ref_exp_sinh(f)

    @pytest.mark.parametrize("i", range(len(LINE_INTEGRANDS)))
    @pytest.mark.parametrize("center_scale", [(0.0, 1.0), (0.3, 0.3), (-2.0, 5.0), (0.0, 1e-3)])
    def test_integrate_line(self, i, center_scale):
        f = LINE_INTEGRANDS[i]
        res = integrate_line(f, QuadratureSpec(), *center_scale)
        assert _triple(res) == _ref_integrate_line(f, QuadratureSpec(), *center_scale)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.7])
    def test_kernel_lines(self, alpha):
        for y in (0.01, 1.0, 30.0):
            f = lambda x: (x * x + y * y) ** (-alpha / 2)
            assert _triple(integrate_line(f)) == _ref_integrate_line(f)
            assert _triple(integrate_line(f, x_center=0.0, scale=y)) == _ref_integrate_line(
                f, x_center=0.0, scale=y
            )

    def test_scalar_results_are_python_scalars(self):
        res = sinh_sinh(LINE_INTEGRANDS[0])
        assert type(res.value) is float and type(res.error) is float
        assert type(res.converged) is bool


# -- the row entry point -----------------------------------------------------

def _easy(x):
    return 1.0 / (x * x + 1.0)  # three levels


def _slow(x):
    return ((x >= 0) & (x <= 1)).astype(float)  # jumps: every level, unconverged


class TestRows:
    def test_rows_equal_one_row_calls(self):
        spec = QuadratureSpec()
        rows_f = [_easy, _slow, _easy, _slow]
        scales = np.array([1.0, 2.0, 0.1, 1.0])
        x_center = 0.25
        seen = []

        def f(X, rows):
            seen.append(rows.copy())
            return np.stack([rows_f[r](X[i]) for i, r in enumerate(rows)])

        got = integrate_line_rows(f, spec, x_center, scales)
        for r, g in enumerate(rows_f):
            one = integrate_line(g, spec, x_center, scales[r])
            assert (got.values[r], got.errors[r], bool(got.converged[r])) == _triple(one)

        # the easy rows are frozen once they converge: they stop appearing
        for r in (0, 2):
            calls = [0]

            def counted(x, g=rows_f[r]):
                calls[0] += 1
                return g(x)

            integrate_line(counted, spec, x_center, scales[r])
            assert sum(r in rows for rows in seen) == calls[0]
            assert calls[0] < len(seen)
        assert all(1 in rows and 3 in rows for rows in seen)

    def test_unconverged_rows_are_flagged(self):
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        got = integrate_line_rows(
            lambda X, rows: (X * X + 1.0) ** -0.51, spec, 0.0, np.ones(2)
        )
        assert not np.any(got.converged)
        one = integrate_line(lambda x: (x * x + 1.0) ** -0.51, spec)
        assert not one.converged and got.values[0] == one.value


# -- status and closed forms of hardy_norm -----------------------------------

class TestHardyNormStatus:
    def test_well_posed_kernel_converges(self):
        hn = hardy_norm(HardyKernel(0.7 + 0.5j, Power(2)), Power(2))
        assert hn.converged
        assert 0.0 <= hn.error <= 1e-6 * hn.modular_sup

    def test_unresolved_rows_are_reported(self):
        """The lowest slices of a Poisson extension are near-steps: no level
        of the rule meets the default tolerance on them."""
        g = StepFunction1D(np.array([-1.0, 0.0, 2.0]), np.array([3.0, -1.0]))
        hn = hardy_norm(PoissonOfStep(g), Power(2))
        assert not hn.converged
        assert hn.error > 1e-6 * hn.modular_sup

    def test_error_follows_the_tolerance(self):
        """A kernel's rows reach estimates that repeat exactly, so even a
        1e-300 tolerance is met, with error 0."""
        f = HardyKernel(0.7 + 0.5j, Power(2))
        spec = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300)
        strict = hardy_norm(f, Power(2), spec=spec)
        assert strict.converged and strict.error == 0.0
        loose = hardy_norm(f, Power(2), spec=QuadratureSpec(abs_tol=1e-2, rel_tol=1e-2))
        assert loose.converged and loose.error > strict.error


class TestRowClosedForm:
    @staticmethod
    def _rows(p, k, spec):
        phi = Power(p)
        y0 = 2.0 ** k
        f = HardyKernel(complex(0.7, y0), phi)
        ys = default_height_grid()
        got = integrate_line_rows(
            lambda X, r: phi(f.abs_value(X, ys[r, None])), spec, 0.7, y0 + ys
        )
        want = f.amplitude ** p * y0 ** (2 * p) * beta(0.5, p - 0.5) * (ys + y0) ** (1 - 2 * p)
        assert np.all(got.converged)
        return got.values, want

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("k", range(-8, 9, 2))
    def test_power_hardy_kernel_rows(self, p, k):
        """Each height's line modular of a Power(p) Hardy kernel is
        ``A^p y0^(2p) B(1/2, p - 1/2) (h + y0)^(1 - 2p)``, the closed form
        the benchmark's volume oracle also states.  With the absolute
        tolerance out of the way every row meets 1e-8 relative."""
        got, want = self._rows(p, k, QuadratureSpec(abs_tol=1e-300))
        np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("k", [-8, 0, 8])
    def test_default_tolerance_rows(self, p, k):
        """With the default spec a row stops once it is within ``abs_tol``:
        rows whose modular is far below it are good to ``abs_tol`` only."""
        spec = QuadratureSpec()
        got, want = self._rows(p, k, spec)
        assert np.all(np.abs(got - want) <= 1e-8 * want + spec.abs_tol)


@pytest.mark.xfail(strict=True, reason=(
    "hardy_norm's height grid starts at 1e-4, above the sup of low kernels "
    "(CHANGES.md, FOUND: spaces.hardy_norm undershoots the norm for low base points)"
))
def test_low_base_point_norm():
    hn = hardy_norm(HardyKernel(2.0 ** -12 * 1j, Power(2)), Power(2))
    assert abs(hn.luxembourg_sup - math.sqrt(math.pi / 2)) <= 1e-6


# -- loop copies of the earlier node generators and product rule -------------

def _ref_ts_nodes(level, a, b):
    h = 2.0 ** (-level)
    t = np.arange(-int(3.8 / h), int(3.8 / h) + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    half = 0.5 * (b - a)
    offset = half * 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
    x = np.where(t >= 0, b - offset, a + offset)
    w = h * half * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return x, w


def _ref_ss_nodes(level):
    h = 2.0 ** (-level)
    t = np.arange(-int(6.0 / h), int(6.0 / h) + 1) * h
    ps = math.pi * np.sinh(t)
    return 0.5 * np.sinh(ps), h * 0.5 * math.pi * np.cosh(t) * np.cosh(ps)


def _ref_es_nodes(level, shift=0.0):
    h = 2.0 ** (-level)
    t = np.arange(-int(6.0 / h), int(6.0 / h) + 1) * h
    y = np.exp(math.pi * np.sinh(t))
    return shift + y, h * math.pi * np.cosh(t) * y


def _ref_safe_products(fv, w):
    with np.errstate(over="ignore", invalid="ignore"):
        prod = fv * w
    return np.where((fv == 0.0) | (w == 0.0), 0.0, prod)


def _ref_product_rule(f, x_nodes, y_nodes, abs_tol, rel_tol, max_level=8):
    prev = None
    err = math.inf
    for level in range(3, max_level + 1):
        x, wx = x_nodes(level)
        y, wy = y_nodes(level)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(x[None, :], y[:, None]), dtype=float)
            weights = wy[:, None] * wx[None, :]
        value = float(np.sum(_ref_safe_products(vals, weights)))
        if prev is not None:
            err = abs(value - prev)
            if err <= abs_tol + rel_tol * abs(value):
                return value, err, True
        prev = value
    return (prev if prev is not None else 0.0), err, False


def _ref_weighted(f, alpha, weight=None):
    def g(x, y):
        w = y ** alpha if alpha != 0.0 else 1.0
        if weight is not None:
            w = w * weight(y)
        return _ref_safe_products(np.asarray(f(x, y), dtype=float), w)

    return g


def _ref_integrate_halfplane(f, alpha, spec, y_lo=0.0, y_hi=math.inf, weight=None,
                             x_center=0.0, scale=1.0):
    def x_nodes(lvl):
        x, w = _ref_ss_nodes(lvl)
        return x_center + scale * x, scale * w

    if math.isinf(y_hi):
        def y_nodes(lvl):
            y, w = _ref_es_nodes(lvl)
            return y_lo + scale * y, scale * w
    else:
        y_nodes = lambda lvl: _ref_ts_nodes(lvl, y_lo, y_hi)
    return _ref_product_rule(_ref_weighted(f, alpha, weight), x_nodes, y_nodes,
                             spec.abs_tol, spec.rel_tol)


def _ref_integrate_box(f, alpha, x_lo, x_hi, y_hi, spec, y_lo=0.0):
    return _ref_product_rule(
        _ref_weighted(f, alpha),
        lambda lvl: _ref_ts_nodes(lvl, x_lo, x_hi),
        lambda lvl: _ref_ts_nodes(lvl, y_lo, y_hi),
        spec.abs_tol, spec.rel_tol,
    )


def _ref_tanh_sinh(f, a, b, abs_tol=1e-10, rel_tol=1e-9, max_level=12):
    if not (b > a):
        return 0.0, 0.0, True
    half = 0.5 * (b - a)
    t_cut = 3.8
    prev = None
    value = 0.0
    converged = False
    err = math.inf
    for level in range(2, max_level + 1):
        h = 2.0 ** (-level)
        j = np.arange(-int(t_cut / h), int(t_cut / h) + 1)
        if prev is not None:
            j = j[j % 2 != 0]
        t = j * h
        u = 0.5 * math.pi * np.sinh(t)
        w = h * 0.5 * math.pi * np.cosh(t) / np.cosh(u) ** 2
        offset = half * 2.0 / (np.exp(2.0 * np.abs(u)) + 1.0)
        x = np.where(t >= 0, b - offset, a + offset)
        contrib = float(np.sum(np.asarray(f(x), dtype=float) * w * half))
        if prev is None:
            prev = contrib
            value = contrib
            continue
        value = 0.5 * prev + contrib
        err = abs(value - prev)
        if err <= abs_tol + rel_tol * abs(value):
            converged = True
            prev = value
            break
        prev = value
    return value, min(err, abs(value)), converged


# -- the product rule against the full-grid loop -----------------------------

def _kernel(kind, x0, y0, phi):
    """``phi(|K|)`` for a Hardy or Bergman kernel at ``x0 + i y0``, or a
    bare rational kernel when ``phi`` is None."""
    if kind == "hardy":
        k = HardyKernel(complex(x0, y0), phi)
    elif kind == "bergman":
        k = BergmanKernel(complex(x0, y0), phi, 0.5)
    else:
        return lambda x, y: ((x - x0) ** 2 + (y + y0) ** 2) ** -1.5
    return lambda x, y: phi(k.abs_value(x, y))


KERNELS = st.sampled_from(["hardy", "bergman", "rational"])
TOPS = st.sampled_from([math.inf, 3.0, 0.25])


def _same_to_1e14(got, want):
    assert got.converged == want[2]
    assert abs(got.value - want[0]) <= 1e-14 * abs(want[0])


class TestProductRuleBitwise:
    """The nested rule refines only the coarse-trimmed window, so it sums
    the full-grid loop's nodes in another order and drops the ones below
    1e-20 of the coarse sum: equal to 1e-14 with the same flags."""

    @settings(max_examples=30, deadline=None)
    @given(
        kind=KERNELS,
        x0=st.floats(-4.0, 4.0),
        k=st.integers(-6, 6),
        alpha=st.sampled_from([0.0, 0.5, 1.0, -0.5, -0.9]),
        y_hi=TOPS,
        hinted=st.booleans(),
    )
    def test_integrate_halfplane(self, kind, x0, k, alpha, y_hi, hinted):
        y0 = 2.0 ** k
        f = _kernel(kind, x0, y0, Power(2))
        spec = QuadratureSpec()
        hint = (x0, y0) if hinted else (0.0, 1.0)
        got = integrate_halfplane(f, alpha, spec, y_hi=y_hi, x_center=hint[0], scale=hint[1])
        want = _ref_integrate_halfplane(f, alpha, spec, y_hi=y_hi,
                                        x_center=hint[0], scale=hint[1])
        _same_to_1e14(got, want)

    @settings(max_examples=15, deadline=None)
    @given(
        kind=KERNELS,
        x0=st.floats(-2.0, 2.0),
        y_lo=st.sampled_from([1e-6, 0.25, 1.0]),
        top=st.sampled_from([1.0, 4.0, math.inf]),
        a=st.floats(-0.9, 1.0),
        hinted=st.booleans(),
    )
    def test_weighted_height_segments(self, kind, x0, y_lo, top, a, hinted):
        """Density segments: an extra height weight over ``(y_lo, y_hi)``."""
        if not top > y_lo:
            top = math.inf
        f = _kernel(kind, x0, 0.5, Power(2))
        weight = lambda y: np.asarray(y, dtype=float) ** a
        spec = QuadratureSpec()
        hint = (x0, 0.5) if hinted else (0.0, 1.0)
        got = integrate_halfplane(f, 0.0, spec, y_lo=y_lo, y_hi=top, weight=weight,
                                  x_center=hint[0], scale=hint[1])
        want = _ref_integrate_halfplane(f, 0.0, spec, y_lo=y_lo, y_hi=top, weight=weight,
                                        x_center=hint[0], scale=hint[1])
        _same_to_1e14(got, want)

    @settings(max_examples=25, deadline=None)
    @given(
        kind=KERNELS,
        x0=st.floats(-2.0, 2.0),
        k=st.integers(-4, 4),
        alpha=st.sampled_from([0.0, 1.0, 2.5, -0.5, -0.9]),
        box=st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 4.0), st.floats(0.01, 4.0)),
        y_lo=st.sampled_from([0.0, 0.005]),
    )
    def test_integrate_box(self, kind, x0, k, alpha, box, y_lo):
        x_lo, width, height = box
        f = _kernel(kind, x0, 2.0 ** k, Power(3))
        spec = QuadratureSpec()
        got = integrate_box(f, alpha, x_lo, x_lo + width, y_lo + height, spec, y_lo)
        want = _ref_integrate_box(f, alpha, x_lo, x_lo + width, y_lo + height, spec, y_lo)
        _same_to_1e14(got, want)

    @pytest.mark.parametrize("y_max", [1.0, 3.0])
    def test_window_edge_reaches_t_cut(self, y_max):
        """A window that reaches the outermost coarse node stays open up to
        ``t_cut``: the finer tanh-sinh levels add nodes between the last
        coarse node (t = 3.75) and t_cut = 3.8, and at alpha = -0.9 the
        mass they carry next to y = 0 is about 5e-4 of the integral."""
        f = _kernel("bergman", 0.3, 0.5, Power(2))
        spec = QuadratureSpec()
        _same_to_1e14(integrate_halfplane(f, -0.9, spec, y_hi=y_max),
                      _ref_integrate_halfplane(f, -0.9, spec, y_hi=y_max))
        ones = lambda x, y: np.ones(np.broadcast(x, y).shape)
        _same_to_1e14(integrate_box(ones, -0.9, 0.0, 1.0, y_max, spec),
                      _ref_integrate_box(ones, -0.9, 0.0, 1.0, y_max, spec))


# -- tanh_sinh against its earlier level loop --------------------------------

FINITE_INTEGRANDS = [
    lambda x: 1.0 / np.sqrt(x),
    lambda x: x ** -0.9,
    lambda x: np.log(x) ** 2,
    lambda x: 1.0 / (x * x + 1e-4),
    lambda x: 1.0 / ((x + 1e-3) * (1.001 - x)),
    lambda x: np.exp(-x) * np.cos(7.0 * x),
    lambda x: ((x >= 0.3) & (x <= 0.6)).astype(float),  # jumps: unconverged
    lambda x: x * 0.0,
]


def _same_to_1e15(got, want):
    assert got.converged == want[2]
    assert abs(got.value - want[0]) <= 1e-15 * abs(want[0])


class TestTanhSinhAgainstLoop:
    @pytest.mark.parametrize("i", range(len(FINITE_INTEGRANDS)))
    @pytest.mark.parametrize("tols", [(1e-10, 1e-9), (1e-14, 1e-14), (1e-300, 1e-300)])
    def test_unit_interval(self, i, tols):
        f = FINITE_INTEGRANDS[i]
        _same_to_1e15(tanh_sinh(f, 0.0, 1.0, *tols), _ref_tanh_sinh(f, 0.0, 1.0, *tols))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-5.0, 5.0),
        width=st.floats(1e-4, 50.0),
        c=st.floats(-6.0, 6.0),
        d=st.floats(1e-3, 3.0),
        p=st.sampled_from([-0.5, 1.0, 1.5, 2.0]),
    )
    def test_kernels_on_intervals(self, a, width, c, d, p):
        f = lambda x: ((x - c) ** 2 + d * d) ** (-p)
        _same_to_1e15(tanh_sinh(f, a, a + width), _ref_tanh_sinh(f, a, a + width))

    def test_empty_interval(self):
        assert _triple(tanh_sinh(np.exp, 1.0, 1.0)) == (0.0, 0.0, True)


# -- the density box integral: one row call per outer level ------------------

def _ref_density_box(base, g, region, spec):
    """The earlier ``DensityMeasure._integrate_box``: one ``tanh_sinh`` line
    integral across the box per height."""
    def slab(ys_):
        out = np.empty_like(np.atleast_1d(ys_), dtype=float)
        for i, y in enumerate(np.atleast_1d(ys_)):
            line = tanh_sinh(
                lambda xs: g(xs, np.full_like(xs, float(y))),
                region.a, region.b, spec.abs_tol, spec.rel_tol,
            )
            out[i] = line.value * float(base.profile(np.asarray([y]))[0])
        return out

    return tanh_sinh(slab, 0.0, region.length, spec.abs_tol, spec.rel_tol).value


DENSITIES = [
    "y^-0.5",
    "y^2",
    "3 * y^0.5",
    "y^3 / powerlog(2, 1, 7.389)(y)",
    "1 / (y^2 * compose_inv(power(4), power(2))(1/y))",
]


class TestDensityBoxRows:
    @settings(max_examples=30, deadline=None)
    @given(
        expr=st.sampled_from(DENSITIES),
        kind=KERNELS,
        x0=st.floats(-2.0, 2.0),
        k=st.integers(-4, 3),
        center=st.floats(-2.0, 2.0),
        length=st.floats(0.05, 4.0),
        phi=st.sampled_from(PHIS),
    )
    def test_restricted_density_integrals(self, expr, kind, x0, k, center, length, phi):
        base = DensityMeasure(parse_density(expr), expr)
        region = CarlesonBox(center, length)
        g = _kernel(kind, x0, 2.0 ** k, phi)
        spec = QuadratureSpec()
        got = RestrictedMeasure(base, region).integrate(g, spec)
        assert got == _ref_density_box(base, g, region, spec)
