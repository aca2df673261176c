import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from orliczhp.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_PASS, canonical_json, main, run
from orliczhp.config import ConfigError, parse_growth, parse_measure
from orliczhp import growth
from orliczhp.growth import ComposedInverse, Power, PowerLog, classify
from orliczhp.measure import AtomicMeasure, DensityMeasure, RestrictedMeasure, WeightedVolume

E2 = 7.38905609893065
ATOM = {"kind": "atomic", "atoms": [[0.0, 1.0, 1.0]]}
MISSING = object()  # an override that removes the key

# one cheap valid config per command, the base of the exit-code cases
CHEAP = {
    "classify-growth": {"phi": "power(2)", "grid": {"points": 64}},
    "carleson-test": {"measure": {"kind": "weighted_volume"}, "phi": "power(1)",
                      "s": 1.0, "box_family": {"j_min": -2, "j_max": 2}},
    "equivalence": {"measure": ATOM, "phi1": "power(2)", "phi2": "power(4)",
                    "box_family": {"j_min": -2, "j_max": 2}},
    "embed-check": {"phi1": "power(1)", "phi2": "power(3)", "alpha": 1.0},
    "multiplier-classify": {"phi1": "power(2)", "phi2": "power(6)", "alpha": 1.0,
                            "grid": {"points": 64}},
    "weak-test": {"measure": ATOM, "phi1": "power(2)", "phi2": "power(4)",
                  "mode": "bergman"},
    "maximal-suite": {"n_functions": 2, "n_probes": 5, "n_levels": 2},
    "suite": {"runs": [{"command": "embed-check", "phi1": "power(1)",
                        "phi2": "power(3)", "alpha": 1.0}]},
}

# the keys each command takes besides command and seed
KEYS = {
    "classify-growth": ["phi", "grid", "expect_nabla2", "expect_tilde"],
    "carleson-test": ["measure", "phi", "s", "box_family", "quadrature", "expect"],
    "equivalence": ["measure", "phi1", "phi2", "mode", "alpha", "s", "box_family",
                    "quadrature", "expect"],
    "embed-check": ["phi1", "phi2", "variant", "alpha", "beta", "grid", "expect"],
    "multiplier-classify": ["phi1", "phi2", "variant", "alpha", "beta", "grid", "expect"],
    "weak-test": ["measure", "phi1", "phi2", "mode", "alpha", "quadrature",
                  "lambda_grid", "family"],
    "maximal-suite": ["n_functions", "n_probes", "n_levels", "alphas"],
    "suite": ["runs"],
}

# wrong-type and out-of-domain values; in-domain extremes are left out, since
# alpha = 1e308 still overflows inside the library for equivalence in bergman
# mode (ZeroDivisionError in CarlesonKernel's amplitude, 1.0 / y0 ** s)
BAD_VALUES = [True, "x", math.nan, math.inf, -1, [], {}]


def cheap_config(command, **overrides):
    cfg = {"command": command, **CHEAP[command], **overrides}
    return {k: v for k, v in cfg.items() if v is not MISSING}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestGrammar:
    def test_growth_literals(self):
        assert isinstance(parse_growth("power(2)"), Power)
        assert parse_growth("power(2, 0.5)").scale == 0.5
        assert isinstance(parse_growth("powerlog(2, 1, 7.389)"), PowerLog)
        comp = parse_growth("compose_inv(power(4), power(2))")
        assert isinstance(comp, ComposedInverse)
        assert comp(3.0) == pytest.approx(9.0)
        refl = parse_growth("recip_reflect(compose_inv(power(4), power(2)))")
        assert refl(3.0) == pytest.approx(9.0)

    def test_growth_errors(self):
        with pytest.raises(ConfigError):
            parse_growth("power(2) extra")
        with pytest.raises(ConfigError):
            parse_growth("mystery(1)")

    def test_measure_specs(self):
        atomic = parse_measure({"kind": "atomic", "atoms": [[0.0, 1.0, 2.0]]})
        assert isinstance(atomic, AtomicMeasure)
        vol = parse_measure({"kind": "weighted_volume", "alpha": 1.0})
        assert isinstance(vol, WeightedVolume) and vol.alpha == 1.0
        dens = parse_measure({"kind": "density", "expr": "y^2"})
        assert isinstance(dens, DensityMeasure)
        rest = parse_measure({
            "kind": "restricted",
            "base": {"kind": "weighted_volume", "alpha": 0.0},
            "region": [0.0, 1.0],
        })
        assert isinstance(rest, RestrictedMeasure)
        sec6 = parse_measure({
            "kind": "section6", "phi1": "power(2)", "phi2": "power(4)",
        })
        assert isinstance(sec6, DensityMeasure)

    def test_measure_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_measure({"kind": "weighted_volume", "alpha": 0.0, "oops": 1})


class TestRun:
    def test_classify_growth(self):
        report = run({"command": "classify-growth", "phi": "power(2)",
                      "expect_nabla2": True})
        assert report["suite_verdict"] == "pass"
        names = [r["name"] for r in report["records"]]
        assert "doubling" in names and "dini" in names

    def test_equivalence_matched(self):
        report = run({
            "command": "equivalence",
            "measure": {"kind": "weighted_volume", "alpha": 1.0},
            "phi1": "power(1)", "phi2": "power(3)",
            "mode": "hardy",
            "box_family": {"j_min": -5, "j_max": 5},
            "expect": "carleson",
        })
        assert report["suite_verdict"] == "pass"

    def test_carleson_test_counterexample(self):
        report = run({
            "command": "carleson-test",
            "measure": {"kind": "section6", "phi1": "power(2)",
                        "phi2": f"powerlog(2, 1, {E2})"},
            "phi": f"compose_inv(powerlog(2, 1, {E2}), power(2))",
            "s": 1.0,
            "box_family": {"j_min": -5, "j_max": 5},
            "expect": "not_carleson",
        })
        assert report["suite_verdict"] == "pass"

    def test_multiplier_classify(self):
        report = run({
            "command": "multiplier-classify",
            "phi1": "power(2)", "phi2": "power(6)", "alpha": 1.0,
            "expect": "H_infinity",
        })
        assert report["suite_verdict"] == "pass"

    def test_embed_check(self):
        report = run({
            "command": "embed-check",
            "phi1": "power(1)", "phi2": "power(3)", "alpha": 1.0,
            "expect": "holds",
        })
        assert report["suite_verdict"] == "pass"

    def test_weak_test(self):
        report = run({
            "command": "weak-test",
            "measure": {"kind": "atomic", "atoms": [[0.0, 1.0, 1.0]]},
            "phi1": "power(2)", "phi2": "power(4)", "mode": "bergman",
            "alpha": 0.0,
        })
        assert report["suite_verdict"] == "pass"

    def test_weak_test_explicit_family(self):
        report = run({
            "command": "weak-test",
            "measure": {"kind": "atomic", "atoms": [[0.0, 1.0, 1.0]]},
            "phi1": "power(2)", "phi2": "power(4)", "mode": "bergman",
            "alpha": 0.0,
            "lambda_grid": [0.01, 0.1, 1.0, 10.0],
            "family": [
                {"kind": "bergman_kernel", "z0": [0.0, 1.0], "phi": "power(2)",
                 "alpha": 0.0},
            ],
        })
        assert report["suite_verdict"] == "pass"

    def test_bad_atoms_are_config_errors(self):
        with pytest.raises(ConfigError):
            parse_measure({"kind": "atomic", "atoms": [[0.0, -1.0, 1.0]]})

    def test_test_function_grammar(self):
        from orliczhp.config import parse_test_function
        from orliczhp.spaces import CarlesonKernel, IndicatorScaled

        f = parse_test_function({"kind": "hardy_kernel", "z0": [0.0, 2.0],
                                 "phi": "power(2)"})
        assert isinstance(f, CarlesonKernel) and f.z0 == 2j and f.s == 1.0
        g = parse_test_function({"kind": "bergman_kernel", "z0": [1.0, 1.0],
                                 "phi": "power(2)", "alpha": 1.0})
        assert isinstance(g, CarlesonKernel) and g.s == 3.0
        h = parse_test_function({"kind": "indicator", "lam": 2.0, "box": [0.0, 1.0]})
        assert isinstance(h, IndicatorScaled)
        with pytest.raises(ConfigError):
            parse_test_function({"kind": "hardy_kernel", "z0": [0.0, -1.0],
                                 "phi": "power(2)"})

    def test_suite_command(self):
        report = run({
            "command": "suite",
            "runs": [
                {"command": "classify-growth", "phi": "power(2)",
                 "expect_nabla2": True},
                {"command": "embed-check", "phi1": "power(1)",
                 "phi2": "power(3)", "alpha": 1.0, "expect": "holds"},
            ],
        })
        assert report["suite_verdict"] == "pass"
        assert any(r["name"].startswith("run[1].") for r in report["records"])

    def test_box_sweep_verdict_keys(self):
        """The box sweep's verdict keys: a trend names a growing edge, and a
        divergent mass reads ``divergent_mass: true`` with trend bounded."""
        report = run({"command": "suite", "runs": [
            {"command": "carleson-test", "measure": {"kind": "weighted_volume", "alpha": 0.0},
             "phi": "power(2)", "s": 2.0, "box_family": {"j_min": -6, "j_max": 6}},
            {"command": "carleson-test",
             "measure": {"kind": "section6", "phi1": "power(2)",
                         "phi2": f"powerlog(2, 1, {E2})"},
             "phi": f"compose_inv(powerlog(2, 1, {E2}), power(2))",
             "s": 1.0, "box_family": {"j_min": -5, "j_max": 5}},
        ]})
        keys = ("constant", "divergent_mass", "trend", "verdict")
        got = [{k: r["values"][k] for k in keys} for r in report["records"]]
        assert got == [
            {"constant": 4096.0, "divergent_mass": False,
             "trend": "growing_small_scale", "verdict": "not_carleson"},
            {"constant": "inf", "divergent_mass": True,
             "trend": "bounded", "verdict": "not_carleson"},
        ]

    def test_box_sweep_overflowing_weight_is_not_carleson(self):
        """A box weight ``phi(1/|I|^s)`` that overflows leaves the empty
        boxes at 0 and makes the box holding the atom infinite."""
        atom = {"kind": "atomic", "atoms": [[0.0, 0.01, 1.0]]}
        report = run({"command": "carleson-test", "measure": atom, "phi": "power(2)",
                      "s": 200.0, "expect": "not_carleson"})
        assert report["suite_verdict"] == "pass"
        values = report["records"][0]["values"]
        assert (values["constant"], values["divergent_mass"]) == ("inf", True)
        assert values["witness"] == [-0.00390625, 0.015625]  # the leftmost box holding it

    def test_box_sweep_reaches_a_far_atom(self):
        """``carleson-test`` adapts its box family to the atoms, as the box
        constant of ``equivalence`` does: an atom at x = 100 lies outside
        the default family's window [-16, 16]."""
        atom = {"kind": "atomic", "atoms": [[100.0, 0.5, 1.0]]}
        report = run({"command": "suite", "runs": [
            {"command": "carleson-test", "measure": atom, "phi": "power(1)", "s": 1.0},
            {"command": "equivalence", "measure": atom, "phi1": "power(1)",
             "phi2": "power(1)", "mode": "raw", "s": 1.0},
        ]})
        test, equivalence = (r["values"] for r in report["records"])
        assert (test["constant"], test["witness"]) == (1.0, [99.75, 1.0])
        assert (equivalence["box_constant"], equivalence["box_witness"]) == (1.0, [99.75, 1.0])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            run({"command": "classify-growth", "phi": "power(2)", "bogus": 3})

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            run({"command": "frobnicate"})


class TestDeterminism:
    def test_identical_reports(self):
        cfg = {"command": "maximal-suite", "seed": 7, "n_functions": 4,
               "n_probes": 10, "n_levels": 4}
        a = run(cfg)
        b = run(cfg)
        a.pop("timing")
        b.pop("timing")
        assert canonical_json(a) == canonical_json(b)

    def test_config_round_trip(self):
        cfg = {"command": "classify-growth", "phi": "power(2)"}
        report = run(cfg)
        echoed = report["config"]
        assert run(echoed)["config_hash"] == report["config_hash"]

    def test_nonfinite_floats_serialize(self):
        text = canonical_json({"a": math.inf, "b": math.nan, "c": np.float64(2.0)})
        parsed = json.loads(text)
        assert parsed == {"a": "inf", "b": "nan", "c": 2.0}



def _lattice_suite(alpha):
    """A suite shaped like the benchmark's lattice cases: 33 classify calls
    over 18 distinct growth functions, all on the default grid."""
    runs = [{"command": "classify-growth", "phi": f"power({p:g})"}
            for p in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
    runs += [{"command": "embed-check", "phi1": f"power({p:g})", "phi2": f"power({q:g})",
              "alpha": alpha} for p in (1.0, 2.0) for q in (2.0, 3.0, 4.0, 6.0)]
    runs += [{"command": "multiplier-classify", "phi1": f"power({p:g})",
              "phi2": f"power({q:g})", "alpha": alpha}
             for p in (1.25, 2.0, 3.0) for q in (4.0, 6.0, 10.0)]
    return {"command": "suite", "runs": runs}


class TestClassifyMemo:
    """classify's memo lives for exactly one run."""

    @pytest.fixture
    def computed(self, monkeypatch):
        keys = []
        inner = growth._classify

        def counting(phi, grid):
            keys.append((phi, grid))
            return inner(phi, grid)

        monkeypatch.setattr(growth, "_classify", counting)
        return keys

    def test_once_per_distinct_function(self, computed):
        report = run(_lattice_suite(1.0))
        assert report["suite_verdict"] == "pass"
        assert len(computed) == len(set(computed)) == 18

    def test_successive_runs_agree_and_recompute(self, computed):
        a = run(_lattice_suite(0.0))
        b = run(_lattice_suite(0.0))
        a.pop("timing")
        b.pop("timing")
        assert canonical_json(a) == canonical_json(b)
        assert len(computed) == 36 and len(set(computed)) == 18

    def test_dropped_when_a_run_raises(self, computed):
        cfg = {"command": "suite", "runs": [
            {"command": "classify-growth", "phi": "power(2)"},
            {"command": "classify-growth", "phi": "power(-1)"},
        ]}
        with pytest.raises(ConfigError):
            run(cfg)
        assert len(computed) == 1
        assert growth._CLASSIFY_MEMO.get() is None
        assert classify(Power(2)) is not classify(Power(2))
        run(cfg["runs"][0])
        assert len(computed) == 4


class TestMainExitCodes:
    def test_pass(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "classify-growth", "phi": "power(2)"})
        assert main(["--config", path]) == EXIT_PASS
        out = capsys.readouterr().out
        assert "classify-growth" in out

    def test_assert_failure(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "command": "embed-check", "phi1": "power(1)", "phi2": "power(2)",
            "alpha": 1.0, "expect": "holds",
        })
        assert main(["--config", path]) == EXIT_PASS  # without --assert
        assert main(["--config", path, "--assert"]) == EXIT_ASSERT
        capsys.readouterr()

    def test_embed_overflow_fails(self, tmp_path, capsys):
        # t^(2 + alpha) overflows on the grid: an infinite ratio is a failure
        cfg = {"command": "embed-check", "phi1": "power(1)", "phi2": "power(3)",
               "alpha": 1e308, "expect": "holds"}
        (rec,) = [r for r in run(cfg)["records"] if r["name"] == "embed-check"]
        assert rec["values"]["holds"] is False
        assert rec["values"]["edge"] == "small_t" and rec["values"]["witness"] == 1e-6
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, "--assert"]) == EXIT_ASSERT
        capsys.readouterr()

    @pytest.mark.parametrize("alpha", [
        63.0,  # s = 65: y0^(2s) alone overflows at 2^8, the ratio form does not
        126.0,  # s = 128: y0^s overflows at y0 = 2^8, a power's amplitude does not
        133.0,  # s = 135: y0^s underflows to 0 at y0 = 2^-8
        pytest.param(1e308, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP item 2: a non-finite kernel or box number is not yet a "
            "verdict. At alpha = 1e308 the kernel amplitude y0^(-s/p) itself "
            "overflows at y0 = 2^-8, so the run exits 3"))),
    ])
    def test_bergman_equivalence_extreme_alpha(self, tmp_path, capsys, alpha):
        """A verdict, and no floating-point warning on the way: an ``inf * 0``
        would read ``phi(nan) = 0`` without one."""
        path = write_config(tmp_path, {
            "command": "equivalence", "measure": ATOM, "phi1": "power(2)",
            "phi2": "power(4)", "mode": "bergman", "alpha": alpha,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--config", path]) in (EXIT_PASS, EXIT_ASSERT)
        capsys.readouterr()

    def test_multiplier_overflow_inconclusive(self, tmp_path, capsys):
        # t^-(2 + alpha) overflows on the grid: the profile is inconclusive
        cfg = {"command": "multiplier-classify", "phi1": "power(2)", "phi2": "power(6)",
               "alpha": 1e308, "grid": {"points": 64}, "expect": "H_infinity_omega"}
        (rec,) = [r for r in run(cfg)["records"] if r["name"] == "multiplier-space"]
        assert rec["values"]["profile"] == "inconclusive"
        assert rec["values"]["space"] == "out_of_theorem"
        assert rec["values"]["failed"] == ["profile_inconclusive"]
        path = write_config(tmp_path, cfg)
        assert main(["--config", path]) == EXIT_PASS
        assert main(["--config", path, "--assert"]) == EXIT_ASSERT
        capsys.readouterr()

    def test_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "classify-growth", "nope": 1})
        assert main(["--config", path]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("base, region", [
        # a restricted base: rejected, not left to fail at run time
        ({"kind": "restricted", "base": {"kind": "atomic", "atoms": [[0.0, 0.5, 1.0]]},
          "region": [0.0, 2.0]}, [0.0, 1.0]),
        ({"kind": "weighted_volume"}, [0.0, -1.0]),
    ])
    def test_bad_restricted_measure_is_config_error(self, tmp_path, capsys, base, region):
        path = write_config(tmp_path, {
            "command": "carleson-test",
            "measure": {"kind": "restricted", "base": base, "region": region},
            "phi": "power(1)",
            "s": 1.0,
        })
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, values", [
        ("quadrature", {"abs_tol": -1}),
        ("quadrature", {"abs_tol": "abc"}),
        ("quadrature", {"y_min": 0}),
        ("quadrature", {"halfwidth": -3}),
        ("quadrature", {"y_max": -1}),
        ("quadrature", {"rel_tol": math.nan}),
        # the engine knobs and the truncation windows are gone
        ("quadrature", {"scheme": "tanh_sinh"}),
        ("quadrature", {"max_depth": 24}),
        ("quadrature", 1e-10),
        ("box_family", {"j_min": "abc"}),
        ("box_family", {"step_fraction": 0.9}),
        ("grid", {"points": 3}),
        # values are not coerced: an int field takes a JSON integer, a float
        # field a JSON number, and a bool is neither
        ("grid", {"points": 8.7}),
        ("grid", {"points": "64"}),
        ("box_family", {"j_min": -3.5}),
        ("quadrature", {"abs_tol": True}),
        ("quadrature", {"rel_tol": "1e-9"}),
    ])
    def test_bad_section_is_config_error(self, tmp_path, capsys, section, values):
        if section == "grid":
            cfg = {"command": "classify-growth", "phi": "power(2)"}
        else:
            cfg = {"command": "carleson-test", "measure": {"kind": "weighted_volume"},
                   "phi": "power(1)", "s": 1.0}
        path = write_config(tmp_path, {**cfg, section: values})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("box_family", [{"j_min": -1074}, {"j_max": 1024}])
    def test_ladder_past_the_normal_floats_is_config_error(self, tmp_path, capsys, box_family):
        # the smallest step 2^-1076 underflowed to 0 in the atomic sweep
        path = write_config(tmp_path, {"command": "carleson-test", "measure": ATOM,
                                       "phi": "power(1)", "s": 1.0, "box_family": box_family})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extent", [-1.0, 0.0])
    def test_nonpositive_box_window_is_config_error(self, tmp_path, capsys, extent):
        # mass 1 on [4, 6) x (0, 2): the family of half-width 16 finds the
        # constant 1 of s = 2; a window of no width saw only boxes at 0
        cfg = {"command": "carleson-test", "phi": "power(1)", "s": 2.0,
               "measure": {"kind": "restricted", "base": {"kind": "weighted_volume"},
                           "region": {"center": 5, "length": 2}}}
        (rec,) = run({**cfg, "box_family": {"extent": 16.0}})["records"]
        assert rec["values"]["constant"] == 1.0
        path = write_config(tmp_path, {**cfg, "box_family": {"extent": extent}})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("phi", [
        "power(-1)", "power(2, 0)", "powerlog(2, 1, 1)", "tabulated((1, 0))",
    ])
    def test_out_of_range_growth_literal_is_config_error(self, tmp_path, capsys, phi):
        path = write_config(tmp_path, {"command": "classify-growth", "phi": phi})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("measure", [
        {"kind": "atomic", "atoms": [[0, "a", 1]]},
        {"kind": "atomic", "atoms": [[0, 1]]},
        {"kind": "weighted_volume", "alpha": -2},
        {"kind": "weighted_volume", "alpha": "abc"},
        {"kind": "section6", "phi1": "power(2)", "phi2": "power(4)", "alpha": "x"},
    ])
    def test_out_of_range_measure_is_config_error(self, tmp_path, capsys, measure):
        path = write_config(tmp_path, {"command": "carleson-test", "measure": measure,
                                       "phi": "power(1)", "s": 1.0})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("values", [
        {"alphas": [-2.0]},
        {"alphas": [-1.0]},
        {"alphas": "01"},
        {"alphas": []},
        {"n_functions": -3},
        {"n_functions": "abc"},
        {"n_probes": -1},
        {"n_levels": -2},
        {"n_levels": 0},
        {"seed": "abc"},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
    ])
    def test_bad_maximal_suite_is_config_error(self, tmp_path, capsys, values):
        path = write_config(tmp_path, {"command": "maximal-suite", "n_functions": 2,
                                       "n_probes": 5, "n_levels": 2, **values})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lambda_grid", [
        ["a"], 3, [-1, 1], [], [0.0], [True], [1.0, math.inf],
    ])
    def test_bad_lambda_grid_is_config_error(self, tmp_path, capsys, lambda_grid):
        path = write_config(tmp_path, {
            "command": "weak-test",
            "measure": {"kind": "atomic", "atoms": [[0.0, 1.0, 1.0]]},
            "phi1": "power(2)", "phi2": "power(4)", "lambda_grid": lambda_grid,
        })
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("equivalence", {"alpha": "abc"}),
        ("equivalence", {"alpha": -3}),
        ("equivalence", {"alpha": True}),
        ("equivalence", {"mode": "zz"}),
        ("equivalence", {"s": "x"}),
        ("equivalence", {"s": -1}),
        ("equivalence", {"expect": 3}),
        ("carleson-test", {"s": -1}),
        ("carleson-test", {"s": True}),
        ("carleson-test", {"expect": "carelson"}),
        ("embed-check", {"variant": "zz"}),
        ("embed-check", {"alpha": math.nan}),
        ("embed-check", {"alpha": 10 ** 400}),  # an integer no float holds
        ("multiplier-classify", {"beta": "x"}),
        ("suite", {"runs": 5}),
        ("suite", {"runs": []}),
        ("suite", {"runs": MISSING}),
        ("classify-growth", {"phi": MISSING}),
        ("classify-growth", {"expect_nabla2": 1}),
        ("classify-growth", {"seed": "x"}),
        ("weak-test", {"family": 3}),
        ("carleson-test", {"measure": {"kind": "section6", "phi1": "power(2)",
                                       "phi2": "power(4)", "variant": "zzz"}}),
        ("carleson-test", {"measure": {"kind": "atomic", "atoms": [[0, 1, 1, 9]]}}),
        ("carleson-test", {"measure": {"kind": "atomic", "atoms": [["0", 1, 1]]}}),
        ("carleson-test", {"measure": {"kind": "atomic", "atoms": [[0, 1, True]]}}),
        # rules across keys
        ("embed-check", {"variant": "bergman_to_bergman"}),
        ("multiplier-classify", {"variant": "bergman_to_bergman"}),
        ("equivalence", {"mode": "raw"}),
        # growth literals with a non-finite parameter
        ("classify-growth", {"phi": "power(1e999)"}),
        ("classify-growth", {"phi": "power(2, 1e999)"}),
        ("classify-growth", {"phi": "powerlog(1e999, 1, 3)"}),
        ("classify-growth", {"phi": "tabulated((0, 0), (1, 1), (1e999, 2))"}),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, overrides):
        path = write_config(tmp_path, cheap_config(command, **overrides))
        assert main(["--config", path]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, options", [
        ({"command": []}, []),
        ([1], ["--seed", "3"]),
        ("classify-growth", ["--seed", "3"]),
    ])
    def test_bad_config_object_is_config_error(self, tmp_path, capsys, cfg, options):
        path = write_config(tmp_path, cfg)
        assert main(["--config", path, *options]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    def test_negative_seed_option_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, cheap_config("embed-check"))
        assert main(["--config", path, "--seed", "-1"]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(CHEAP))
    def test_cheap_configs_pass(self, tmp_path, capsys, command):
        # the cases above and the sweep below change one key of these
        path = write_config(tmp_path, cheap_config(command))
        assert main(["--config", path]) == EXIT_PASS
        capsys.readouterr()

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in sorted(KEYS) for key in ["seed", *KEYS[command]]
    ])
    def test_wrong_values_never_runtime_errors(self, tmp_path, capsys, command, key):
        for value in BAD_VALUES:
            path = write_config(tmp_path, cheap_config(command, **{key: value}))
            code = main(["--config", path])
            err = capsys.readouterr().err
            assert code in (EXIT_PASS, EXIT_CONFIG), (value, err)

    def test_json_output_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "classify-growth", "phi": "power(3)"})
        out = tmp_path / "report.json"
        assert main(["--config", cfg, "--format", "json", "--out", str(out)]) == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["suite_verdict"] == "pass"
        capsys.readouterr()

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "command": "maximal-suite", "seed": 1, "n_functions": 2,
            "n_probes": 5, "n_levels": 2,
        })
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["--config", cfg, "--format", "json", "--out", str(out1)]) == EXIT_PASS
        assert main(["--config", cfg, "--format", "json", "--seed", "2",
                     "--out", str(out2)]) == EXIT_PASS
        r1 = json.loads(out1.read_text())
        r2 = json.loads(out2.read_text())
        assert r1["config"]["seed"] == 1
        assert r2["config"]["seed"] == 2
        capsys.readouterr()


def test_readme_configs_run(tmp_path, capsys):
    """Every JSON block of the README is a valid config whose asserted
    checks pass."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = write_config(tmp_path, json.loads(block), f"readme{i}.json")
        assert main(["--config", path, "--assert"]) == EXIT_PASS, block
    capsys.readouterr()
