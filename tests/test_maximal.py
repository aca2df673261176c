import ast
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczhp import cli, maximal
from orliczhp.corpus import random_step_1d, random_step_2d
from orliczhp.growth import Power
from orliczhp.maximal import (
    DyadicGrid,
    PoissonExtension,
    StepFunction1D,
    StepFunction2D,
    dyadic_level_intervals,
    dyadic_maximal,
    hl_maximal,
    maximal_suite,
    nontangential_maximal,
    translated_box_table,
    weighted_dyadic_maximal_batch,
    weighted_maximal_over_boxes,
)


def indicator_1d(a, b, window=8.0, value=1.0):
    return StepFunction1D(np.array([-window, a, b, window]), np.array([0.0, value, 0.0]))


def box_indicator_2d(value=1.0):
    """value * chi over [0,1) x (0,1) on a binary-aligned grid."""
    xe = np.linspace(-8, 8, 65)
    ye = np.linspace(0, 8, 65)
    v = np.zeros((64, 64))
    v[32:36, 0:8] = value
    return StepFunction2D(xe, ye, v)


class TestHLMaximal:
    def test_indicator_outside(self):
        # optimum interval [0, 2] gives average 1/2
        assert hl_maximal(indicator_1d(0, 1), 2.0) == pytest.approx(0.5)

    def test_indicator_inside(self):
        assert hl_maximal(indicator_1d(0, 1), 0.5) == pytest.approx(1.0)

    def test_zero_function(self):
        z = StepFunction1D(np.array([-8.0, 8.0]), np.array([0.0]))
        assert hl_maximal(z, 1.0) == 0.0

    def test_brute_force_oracle(self):
        # oracle: dense endpoint enumeration on a fine grid
        rng = np.random.default_rng(4)
        f = random_step_1d(rng, n_cells=16, half_width=2.0)
        F = f.abs_prefix()
        fine = np.linspace(-2.0, 2.0, 2001)
        Ff = np.interp(fine, f.edges, F)
        # np.interp clamps outside the span, matching f = 0 there
        for x in (-1.3, 0.05, 0.8, 1.9):
            lefts = np.concatenate([fine[fine <= x], [x]])
            rights = np.concatenate([[x], fine[fine >= x]])
            avg = (np.interp(rights, fine, Ff)[None, :] - np.interp(lefts, fine, Ff)[:, None])
            width = rights[None, :] - lefts[:, None]
            with np.errstate(invalid="ignore", divide="ignore"):
                # width floor avoids catastrophic cancellation in F differences
                oracle = np.nanmax(np.where(width > 1e-9, avg / width, np.nan))
            assert hl_maximal(f, x) == pytest.approx(float(oracle), rel=1e-6, abs=1e-12)


class TestDyadicMaximal:
    def test_indicator_far_point(self):
        f = indicator_1d(0, 1)
        grid = DyadicGrid(0.0, -3, 3)
        # candidates [1,2): 0, [0,2): 1/2, [0,4): 1/4
        assert dyadic_maximal(f, grid, 1.5) == pytest.approx(0.5)

    def test_indicator_inside(self):
        f = indicator_1d(0, 1)
        assert dyadic_maximal(f, DyadicGrid(0.0, -3, 3), 0.25) == pytest.approx(1.0)

    def test_one_third_shift_straddles_zero(self):
        f = indicator_1d(-1, 0)
        v0 = dyadic_maximal(f, DyadicGrid(0.0, -3, 3), 0.1)
        v3 = dyadic_maximal(f, DyadicGrid(1.0 / 3.0, -3, 3), 0.1)
        assert v3 > v0

    def test_one_third_trick_pointwise(self):
        rng = np.random.default_rng(9)
        g0 = DyadicGrid(0.0, -4, 6)
        g3 = DyadicGrid(1.0 / 3.0, -4, 6)
        for _ in range(25):
            f = random_step_1d(rng)
            xs = rng.uniform(*f.window, 40)
            m = np.array([hl_maximal(f, float(x)) for x in xs])
            md = dyadic_maximal(f, g0, xs) + dyadic_maximal(f, g3, xs)
            assert np.all(m <= 6.0 * md + 1e-12)

    def test_weak_type_constant_two(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            f = random_step_1d(rng)
            top = float(np.max(np.abs(f.values)))
            if top == 0:
                continue
            widths = np.diff(f.edges)
            fa = np.abs(f.values)
            for grid in (DyadicGrid(0.0, -4, 6), DyadicGrid(1.0 / 3.0, -4, 6)):
                for lam in np.geomspace(top / 50, top * 0.99, 8):
                    intervals = dyadic_level_intervals(f, grid, float(lam))
                    size = sum(b - a for a, b in intervals)
                    bound = (2.0 / lam) * float(np.sum(fa[fa > lam / 2] * widths[fa > lam / 2]))
                    assert size <= bound + 1e-12

    def test_level_intervals_match_maximal(self):
        # union of returned intervals == {dyadic maximal > lam}, checked on
        # a fine probe grid
        rng = np.random.default_rng(12)
        f = random_step_1d(rng, n_cells=32)
        grid = DyadicGrid(1.0 / 3.0, -4, 5)
        lam = 0.4 * float(np.max(np.abs(f.values)) or 1.0)
        intervals = dyadic_level_intervals(f, grid, lam)
        xs = np.linspace(-7.9, 7.9, 1500)
        maximal = dyadic_maximal(f, grid, xs)
        inside = np.zeros_like(xs, dtype=bool)
        for a, b in intervals:
            inside |= (xs >= a) & (xs < b)
        np.testing.assert_array_equal(maximal > lam, inside)

    def test_orlicz_ratio_bounded(self):
        # modular of the dyadic maximal against t^2 stays within a fixed
        # multiple of the modular of the function itself
        rng = np.random.default_rng(13)
        phi = Power(2)
        grid = DyadicGrid(0.0, -4, 5)
        worst = 0.0
        for _ in range(20):
            f = random_step_1d(rng)
            widths = np.diff(f.edges)
            denom = float(np.sum(phi(np.abs(f.values)) * widths))
            if denom == 0:
                continue
            # the dyadic maximal is constant on finest-scale cells
            cell = 2.0 ** grid.j_min
            edges = np.arange(-(2.0 ** (grid.j_max + 1)), 2.0 ** (grid.j_max + 1) + cell, cell)
            centers = 0.5 * (edges[:-1] + edges[1:])
            md = dyadic_maximal(f, grid, centers)
            numer = float(np.sum(phi(md) * cell))
            worst = max(worst, numer / denom)
        assert worst <= 100.0


class TestWeighted:
    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_box_average_indicator(self, alpha):
        # one scale, length 1: the maximal at (0.5, 0.5) is the average
        # over the box on [0, 1)
        f = box_indicator_2d()
        got = weighted_dyadic_maximal_batch(f, alpha, [0.5], [0.5], 0, 0)[0]
        assert got == pytest.approx(1.0, rel=1e-12)

    def test_dyadic_point_in_box(self):
        f = box_indicator_2d()
        assert weighted_dyadic_maximal_batch(f, 0.0, [0.5], [0.5], -2, 3)[0] == pytest.approx(1.0)

    def test_dyadic_point_above_box(self):
        f = box_indicator_2d()
        # smallest containing dyadic box is over [0, 2)
        assert weighted_dyadic_maximal_batch(f, 0.0, [0.5], [1.5], -2, 3)[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_dyadic_comparison_68(self, alpha):
        rng = np.random.default_rng(15)
        for _ in range(8):
            f = random_step_2d(rng)
            table = translated_box_table(f, alpha, -3, 4, extent=6.0)
            xs = rng.uniform(-4, 4, 40)
            ys = rng.uniform(1e-3, 3.9, 40)
            full = weighted_maximal_over_boxes(table, (xs, ys))
            dyad = weighted_dyadic_maximal_batch(f, alpha, xs, ys, -3, 4)
            live = full > 1e-12
            assert np.all(dyad[live] >= full[live] / 68.0 - 1e-12)

    def test_pointwise_dominated_by_maximal(self):
        # |f| at cell centers is controlled by the box maximal there
        rng = np.random.default_rng(16)
        worst = 0.0
        for alpha in (0.0, 1.0):
            f = random_step_2d(rng)
            xc = 0.5 * (f.x_edges[:-1] + f.x_edges[1:])
            yc = 0.5 * (f.y_edges[:-1] + f.y_edges[1:])
            for i in range(0, xc.size, 7):
                for j in range(0, yc.size, 7):
                    val = abs(f.values[i, j])
                    if val == 0:
                        continue
                    m = weighted_dyadic_maximal_batch(f, alpha, [xc[i]], [yc[j]], -3, 4)[0]
                    worst = max(worst, val / m)
        assert worst <= 100.0


class TestNontangential:
    def test_height_decreasing_profile(self):
        f = lambda t, y: 1.0 / (1.0 + y)
        got = nontangential_maximal(f, 0.0)
        assert got[0] == pytest.approx(1.0 / (1.0 + 1e-3), rel=1e-9)

    def test_height_increasing_profile(self):
        f = lambda t, y: y + 0.0 * t
        assert nontangential_maximal(f, 0.0)[0] == pytest.approx(1e3)

    def test_cone_meets_box(self):
        chi = lambda t, y: ((t >= 0) & (t < 1) & (y > 0) & (y < 1)).astype(float)
        for x, want in ((-0.5, 1.0), (0.5, 1.0), (1.5, 1.0), (-1.5, 0.0), (2.5, 0.0)):
            assert nontangential_maximal(chi, x)[0] == want


class TestPoisson:
    def test_unit_mass(self):
        g = StepFunction1D(np.array([-50.0, 50.0]), np.array([1.0]))
        val = float(PoissonExtension(g)(0.0, 1.0))
        assert val == pytest.approx(1.0, abs=0.02)
        assert val < 1.0  # truncation loses a little mass

    def test_arctangent_closed_form(self):
        g = StepFunction1D(np.array([-1.0, 1.0]), np.array([1.0]))
        P = PoissonExtension(g)
        for x, y in ((0.0, 0.5), (0.3, 2.0), (-2.0, 1.0)):
            want = (math.atan((1 - x) / y) + math.atan((1 + x) / y)) / math.pi
            assert float(P(x, y)) == pytest.approx(want, rel=1e-12)

    def test_large_height_decay(self):
        g = StepFunction1D(np.array([-1.0, 1.0]), np.array([1.0]))
        val = float(PoissonExtension(g)(0.0, 100.0))
        assert val == pytest.approx(2.0 / (math.pi * 100.0), rel=0.05)

    def test_exceeds_level_on_box(self):
        # extension of 4 lam chi_I stays above lam throughout Q_I
        lam = 0.7
        g = StepFunction1D(np.array([0.0, 1.0]), np.array([4.0 * lam]))
        P = PoissonExtension(g)
        xs = np.linspace(1e-3, 1 - 1e-3, 21)
        ys = np.linspace(1e-3, 1 - 1e-3, 21)
        vals = P(xs[:, None], ys[None, :])
        assert np.all(vals > lam)


# -- references: a copy of the per-interval recursion that
# ``maximal.dyadic_level_intervals`` replaced, the per-box average, and the
# maximal suite as the CLI ran it before ``maximal.maximal_suite``

def _ref_dyadic_level_intervals(f, grid, lam):
    prefix = f.abs_prefix()

    def F(t):
        return np.interp(t, f.edges, prefix)

    x_lo, x_hi = f.window
    taken = []

    def descend(j, a, b):
        if (F(b) - F(a)) / (b - a) > lam:
            taken.append((a, b))
            return
        if j == grid.j_min:
            return
        for aa, bb in zip(*grid.intervals_at(j - 1, a, b - 1e-12)):
            if bb <= a or aa >= b:
                continue
            descend(j - 1, aa, bb)

    for a, b in zip(*grid.intervals_at(grid.j_max, x_lo, x_hi)):
        descend(grid.j_max, float(a), float(b))
    return sorted(taken)


def _ref_height_weights(f, alpha, length):
    lo = np.maximum(f.y_edges[:-1], 0.0)
    hi = np.maximum(np.minimum(f.y_edges[1:], length), lo)
    return (hi ** (1.0 + alpha) - lo ** (1.0 + alpha)) / (1.0 + alpha)


def _ref_box_average(f, alpha, a, b):
    """The cell-overlap average of |f| over the box ``[a, b) x (0, b - a)``."""
    length = b - a
    wy = _ref_height_weights(f, alpha, length)
    xe = f.x_edges
    wx = np.clip(np.minimum(xe[1:], b) - np.maximum(xe[:-1], a), 0.0, None)
    return float(wx @ np.abs(f.values) @ wy) / (length ** (2.0 + alpha) / (1.0 + alpha))


def _ref_finest_cells(grid, window):
    a, b = grid.intervals_at(grid.j_max, *window)
    starts, stops = grid.intervals_at(grid.j_min, float(a[0]), float(b[-1]))
    return 0.5 * (starts + stops)


def _ref_suite_counts(seed, n_functions, n_probes, n_levels, alphas):
    rng = np.random.default_rng(seed)
    grids = (DyadicGrid(0.0, -4, 6), DyadicGrid(1.0 / 3.0, -4, 6))

    onethird_bad = weak_bad = compare_bad = 0
    for _ in range(n_functions):
        f = random_step_1d(rng)
        probes = rng.uniform(*f.window, n_probes)
        m_full = np.array([maximal.hl_maximal(f, float(x)) for x in probes])
        m_dyadic = maximal.dyadic_maximal(f, grids[0], probes) + maximal.dyadic_maximal(f, grids[1], probes)
        onethird_bad += int(np.sum(m_full > 6.0 * m_dyadic + 1e-12))

        top = float(np.max(np.abs(f.values)))
        if top > 0:
            fa = np.abs(f.values)
            widths = np.diff(f.edges)
            cells = [
                (2.0 ** grid.j_min, maximal.dyadic_maximal(f, grid, _ref_finest_cells(grid, f.window)))
                for grid in grids
            ]
            for lam in np.geomspace(top / 100.0, top * 0.999, n_levels):
                bound = (2.0 / lam) * float(np.sum(fa[fa > lam / 2] * widths[fa > lam / 2]))
                for width, m_cells in cells:
                    if width * np.count_nonzero(m_cells > lam) > bound + 1e-12:
                        weak_bad += 1

    for _ in range(max(1, n_functions // 4)):
        f2 = random_step_2d(rng)
        xs = rng.uniform(f2.x_edges[0], f2.x_edges[-1], n_probes)
        ys = rng.uniform(f2.y_edges[0] + 1e-6, f2.y_edges[-1] * 0.999, n_probes)
        for alpha in alphas:
            table = maximal.translated_box_table(f2, alpha, -3, 4, extent=6.0)
            full = maximal.weighted_maximal_over_boxes(table, (xs, ys))
            dyad = maximal.weighted_dyadic_maximal_batch(f2, alpha, xs, ys, -3, 4)
            compare_bad += int(np.sum((full > 1e-12) & (dyad < full / 68.0 - 1e-12)))
    return onethird_bad, weak_bad, compare_bad


def _ref_run_maximal(config):
    """The CLI command as it was, over the reference counts."""
    seed = int(config.get("seed", 0))
    n_functions = int(config.get("n_functions", 50))
    onethird_bad, weak_bad, compare_bad = _ref_suite_counts(
        seed, n_functions, int(config.get("n_probes", 50)),
        int(config.get("n_levels", 10)), [float(a) for a in config.get("alphas", [0.0, 1.0])],
    )
    values = {
        "one_third_violations": onethird_bad,
        "weak_type_violations": weak_bad,
        "dyadic_comparison_violations": compare_bad,
        "n_functions": n_functions,
        "seed": seed,
    }
    passed = onethird_bad == 0 and weak_bad == 0 and compare_bad == 0
    records = [cli._record(
        "maximal-suite",
        "one-third trick (factor 6), weak type (constant 2), dyadic "
        "comparison (factor 68) on seeded random step functions",
        {"seed": seed, "n_functions": n_functions},
        values,
        "pass" if passed else "fail",
    )]
    return records, passed


def _benchmark_maximal_config(seed):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.cli_configs(seed)["maximal"]


def _body(report):
    return cli.canonical_json({k: v for k, v in report.items() if k != "timing"})


# scale ranges shorter than the defaults: the maximal suite's and two more
J_RANGES = [(-4, 6), (-3, 4), (-1, 2)]
# levels as fractions of max |f|: ties at simple fractions, and the rest
LEVELS = st.one_of(st.sampled_from([1.0, 0.75, 0.5, 0.25]), st.floats(0.01, 1.0))


def _planted_step_2d(seed):
    """A random 2-D step function whose maximum sits in the bottom row, so
    the boxes inside that cell average exactly max |f|."""
    f = random_step_2d(np.random.default_rng(seed))
    values = f.values.copy()
    values[seed % values.shape[0], 0] = 2.0 * float(np.max(np.abs(values)) or 1.0)
    return StepFunction2D(f.x_edges, f.y_edges, values)


class TestOneSearch:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), beta=st.sampled_from([0.0, 1.0 / 3.0]),
           j_range=st.sampled_from(J_RANGES), u=LEVELS)
    def test_dyadic_level_intervals_equal_recursion(self, seed, beta, j_range, u):
        f = random_step_1d(np.random.default_rng(seed))
        grid = DyadicGrid(beta, *j_range)
        lam = u * float(np.max(np.abs(f.values)) or 1.0)
        assert dyadic_level_intervals(f, grid, lam) == _ref_dyadic_level_intervals(f, grid, lam)

    # the recursion takes about a second per call on the default range
    # (-6, 8), so it gets one case
    def test_dyadic_level_intervals_default_range(self):
        f = random_step_1d(np.random.default_rng(5))
        lam = 0.6 * float(np.max(np.abs(f.values)))
        grid = DyadicGrid(1.0 / 3.0)
        assert dyadic_level_intervals(f, grid, lam) == _ref_dyadic_level_intervals(f, grid, lam) != []

    def test_nonpositive_level_rejected(self):
        f = random_step_1d(np.random.default_rng(0))
        with pytest.raises(ValueError):
            dyadic_level_intervals(f, DyadicGrid(), 0.0)


class TestBoxAverages:
    """The box table and the batched dyadic maximal share one cell-overlap
    box average; each value is the per-box average."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_table_matches_per_box_average(self, alpha):
        f = random_step_2d(np.random.default_rng(21))
        a, length, avg = translated_box_table(f, alpha, -3, 4, extent=6.0)
        want = [_ref_box_average(f, alpha, x, x + h) for x, h in zip(a, length)]
        np.testing.assert_allclose(avg, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_batch_matches_per_box_average(self, alpha):
        rng = np.random.default_rng(22)
        f = random_step_2d(rng)
        xs, ys = rng.uniform(-4, 4, 30), rng.uniform(1e-3, 3.9, 30)
        want = [
            max(_ref_box_average(f, alpha, h * math.floor(x / h), h * math.floor(x / h) + h)
                if y < h else 0.0 for h in 2.0 ** np.arange(-3, 5))
            for x, y in zip(xs, ys)
        ]
        np.testing.assert_allclose(
            weighted_dyadic_maximal_batch(f, alpha, xs, ys, -3, 4), want, rtol=1e-14, atol=0)

    def test_box_inside_one_cell_is_exact(self):
        # cells are 1/4 wide and 1/8 high: a box of side 1/8 on the bottom
        # row averages its cell's value exactly, with no rounding
        f = _planted_step_2d(7)
        top = float(np.max(f.values))
        i = 7 % f.values.shape[0]
        a = float(f.x_edges[i])
        assert weighted_dyadic_maximal_batch(f, 1.0, [a + 0.0625], [0.0625], -3, -3)[0] == top
        table = translated_box_table(f, 1.0, -3, -3, extent=4.0)
        assert np.max(table[2]) == top


class TestMaximalSuite:
    @pytest.mark.parametrize("seed", range(6))
    def test_counts_and_report_equal_reference(self, seed, monkeypatch):
        config = {"command": "maximal-suite", "seed": seed, "n_functions": 4,
                  "n_probes": 10, "n_levels": 4}
        assert maximal_suite(seed, 4, 10, 4, [0.0, 1.0]) == _ref_suite_counts(
            seed, 4, 10, 4, [0.0, 1.0])
        body = _body(cli.run(config))
        monkeypatch.setitem(cli._COMMANDS, "maximal-suite", _ref_run_maximal)
        assert body == _body(cli.run(config))

    @pytest.mark.parametrize("factor", [0.1, 3.0])
    def test_counts_follow_each_draw(self, factor, monkeypatch):
        # the theorems keep every count at zero; scaled dyadic maximals break
        # them at some points only, so the counts pin each draw and its order
        dyadic, batch = maximal.dyadic_maximal, maximal.weighted_dyadic_maximal_batch
        monkeypatch.setattr(maximal, "dyadic_maximal", lambda *a: factor * dyadic(*a))
        monkeypatch.setattr(maximal, "weighted_dyadic_maximal_batch", lambda *a: 0.015 * batch(*a))
        got = maximal_suite(3, 8, 20, 6, [0.0, 1.0])
        assert got == _ref_suite_counts(3, 8, 20, 6, [0.0, 1.0])
        assert got[0 if factor < 1 else 1] > 0 and 0 < got[2] < 80

    @pytest.mark.parametrize("seed", [0, 11])
    def test_benchmark_config_equal_reference(self, seed, monkeypatch):
        config = _benchmark_maximal_config(seed)
        body = _body(cli.run(config))
        assert json.loads(body)["suite_verdict"] == "pass"
        monkeypatch.setitem(cli._COMMANDS, "maximal-suite", _ref_run_maximal)
        assert body == _body(cli.run(config))


class TestOneImplementation:
    """Each maximal-operator concept has one home: the CLI calls only the
    suite, and the level-set search is one loop."""

    @staticmethod
    def _tree(module):
        return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))

    def test_cli_imports_only_the_suite(self):
        imported = set()
        for node in ast.walk(self._tree(cli)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("maximal"):
                imported |= {alias.name for alias in node.names}
            if isinstance(node, ast.ImportFrom) and node.module is None:
                assert "maximal" not in {alias.name for alias in node.names}
        assert imported == {"maximal_suite"}

    def test_no_nested_descend(self):
        names = [node.name for node in ast.walk(self._tree(maximal))
                 if isinstance(node, ast.FunctionDef)]
        assert "descend" not in names
