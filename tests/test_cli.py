import json
import math

import numpy as np
import pytest

from orliczhp.cli import EXIT_ASSERT, EXIT_CONFIG, EXIT_PASS, canonical_json, main, run
from orliczhp.config import ConfigError, parse_growth, parse_measure
from orliczhp.growth import ComposedInverse, Power, PowerLog
from orliczhp.measure import AtomicMeasure, DensityMeasure, RestrictedMeasure, WeightedVolume

E2 = 7.38905609893065


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
        from orliczhp.spaces import BergmanKernel, HardyKernel, IndicatorScaled

        f = parse_test_function({"kind": "hardy_kernel", "z0": [0.0, 2.0],
                                 "phi": "power(2)"})
        assert isinstance(f, HardyKernel) and f.z0 == 2j
        g = parse_test_function({"kind": "bergman_kernel", "z0": [1.0, 1.0],
                                 "phi": "power(2)", "alpha": 1.0})
        assert isinstance(g, BergmanKernel)
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
        # the engine knobs are gone: adaptive Simpson is the one finite-window engine
        ("quadrature", {"scheme": "tanh_sinh"}),
        ("quadrature", {"max_depth": 24}),
        ("quadrature", 1e-10),
        ("box_family", {"j_min": "abc"}),
        ("box_family", {"step_fraction": 0.9}),
        ("grid", {"points": 3}),
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
