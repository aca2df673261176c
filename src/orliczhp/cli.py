"""Batch front end: parse a JSON config, dispatch one verification
command, emit a structured report.

Exit codes: 0 all asserted checks pass, 1 an asserted check failed,
2 malformed config, 3 unexpected runtime error.  Verdict expectations in
the config (``expect`` fields) only affect the exit code under
``--assert``; the report always records them.

The report body is deterministic for a fixed (config, seed): records are
emitted in a fixed order and the wall-clock timings live in a separate
``timing`` section that is excluded from the canonical byte image (and
from the config hash).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from typing import Any, Optional

import numpy as np

from . import __version__
from .config import ConfigError, parse_growth, parse_measure
from .growth import LogGrid, classify, derived_pair
from .integrals import QuadratureSpec
from .maximal import maximal_suite
from .measure import BoxFamily, carleson_box_constant
from .carleson import (
    embedding_constant,
    hardy_test_family,
    bergman_test_family,
    verify_equivalence,
    weak_hardy_family,
    weak_type_constant,
)
from .multipliers import embed_check, multiplier_space, omega_profile

EXIT_PASS = 0
EXIT_ASSERT = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_COMMANDS = {}


def _jsonable(obj: Any) -> Any:
    """Recursively convert to JSON-safe values; non-finite floats become
    strings so the canonical byte image is strict JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":"))


def _record(name: str, claim: str, inputs: dict, values: dict,
            verdict: str, tolerances: Optional[dict] = None) -> dict:
    return {
        "name": name,
        "claim": claim,
        "inputs": _jsonable(inputs),
        "values": _jsonable(values),
        "verdict": verdict,
        "tolerances": _jsonable(tolerances or {}),
    }


def _command(name):
    def deco(fn):
        _COMMANDS[name] = fn
        return fn
    return deco


def _check_keys(config: dict, allowed: set[str]) -> None:
    unknown = set(config) - allowed - {"command", "seed"}
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")


# config sections that set up a dataclass, by key
_SECTIONS = {"quadrature": QuadratureSpec, "box_family": BoxFamily, "grid": LogGrid}


def _section(config: dict, key: str):
    """The dataclass of config section ``key``.  Its numeric fields are the
    allowed keys, with their defaults and types: an int field takes a JSON
    integer and a float field a JSON number; a bool is neither."""
    given = config.get(key, {})
    if not isinstance(given, dict):
        raise ConfigError(f"{key} must be a JSON object")
    cls = _SECTIONS[key]
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if isinstance(f.default, (int, float))}
    extra = set(given) - set(defaults)
    if extra:
        raise ConfigError(f"unknown {key} keys {sorted(extra)}")
    for k, v in given.items():
        is_int = isinstance(defaults[k], int)
        if isinstance(v, bool) or not isinstance(v, int if is_int else (int, float)):
            kind = "integer" if is_int else "number"
            raise ConfigError(f"{key}.{k} must be a JSON {kind}, got {v!r}")
    try:
        return cls(**{k: type(d)(given.get(k, d)) for k, d in defaults.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {key} values: {exc}") from exc


def _expectation(config: dict, key: str, actual, records: list, name: str) -> bool:
    """Record an expectation check; absent expectations always pass."""
    if key not in config:
        return True
    expected = config[key]
    ok = expected == actual
    records.append(_record(
        name, f"expected {expected!r}", {"expected": expected},
        {"actual": actual}, "pass" if ok else "fail",
    ))
    return ok


def _explicit_family(specs, phi1, mode: str, alpha: float, spec: QuadratureSpec):
    """Normed test family from explicit test-function specs."""
    from .carleson import NormedMember
    from .config import parse_test_function
    from .spaces import bergman_norm, hardy_norm

    members = []
    for i, fn_spec in enumerate(specs):
        f = parse_test_function(fn_spec)
        if mode == "hardy":
            norm = hardy_norm(f, phi1, spec=spec).luxembourg_sup
        else:
            norm = bergman_norm(f, phi1, alpha, spec=spec).luxembourg
        if norm <= 0:
            raise ConfigError(f"family member {i} has zero norm in the source space")
        members.append(NormedMember(
            f"{fn_spec.get('kind', 'member')}[{i}]", f, norm,
            float(getattr(f, "natural_scale", 1.0)),
        ))
    return members


# ---------------------------------------------------------------------------
# Command handlers: each returns (records, passed)
# ---------------------------------------------------------------------------

@_command("classify-growth")
def _run_classify(config: dict):
    _check_keys(config, {"phi", "grid", "expect_nabla2", "expect_tilde"})
    phi = parse_growth(config["phi"])
    cls = classify(phi, _section(config, "grid"))
    records = [
        _record(
            "doubling",
            "phi(2t) <= K phi(t) on the grid",
            {"phi": config["phi"]},
            {"constant": cls.doubling.constant, "passed": cls.doubling.passed},
            "info",
        ),
        _record(
            "dini",
            "int_0^t phi(s)/s^2 ds <= C phi(t)/t (annulus sums)",
            {"phi": config["phi"]},
            {"constant": cls.dini.constant, "passed": cls.dini.passed,
             "witness": cls.dini.witness},
            "info",
        ),
        _record(
            "indices",
            "grid extrema of t phi'(t)/phi(t)",
            {"phi": config["phi"]},
            {"lower": cls.lower_index, "upper": cls.upper_index,
             "upper_type": cls.upper_type_estimate,
             "lower_type": cls.lower_type_estimate,
             "upper_type_constant": cls.upper_type_constant},
            "info",
        ),
        _record(
            "submultiplicativity",
            "the three quotient conditions on 2-d grids",
            {"phi": config["phi"]},
            {k: v.as_dict() for k, v in cls.tilde_conditions.items()},
            "info",
        ),
    ]
    ok = _expectation(config, "expect_nabla2", cls.nabla2_passed, records, "expect_nabla2")
    ok &= _expectation(config, "expect_tilde", cls.tilde_passed, records, "expect_tilde")
    return records, ok


@_command("carleson-test")
def _run_carleson_test(config: dict):
    _check_keys(config, {"measure", "phi", "s", "box_family", "quadrature", "expect"})
    mu = parse_measure(config["measure"])
    phi = parse_growth(config["phi"])
    s = float(config.get("s", 1.0))
    sweep = carleson_box_constant(
        mu, phi, s, _section(config, "box_family"), _section(config, "quadrature")
    )
    verdict = "carleson" if sweep.finite else "not_carleson"
    records = [_record(
        "box-sweep",
        "sup over the box family of mu(Q_I) * phi(1/|I|^s)",
        {"measure": config["measure"], "phi": config["phi"], "s": s},
        {
            "constant": sweep.constant,
            "witness": None if sweep.witness is None else
                [sweep.witness.center_x, sweep.witness.length],
            "divergent_mass": sweep.divergent_mass,
            "trend": sweep.trend,
            "verdict": verdict,
        },
        "info",
    )]
    ok = _expectation(config, "expect", verdict, records, "expect")
    return records, ok


@_command("equivalence")
def _run_equivalence(config: dict):
    _check_keys(config, {"measure", "phi1", "phi2", "mode", "alpha", "s",
                         "box_family", "quadrature", "expect"})
    mu = parse_measure(config["measure"])
    phi1 = parse_growth(config["phi1"])
    phi2 = parse_growth(config["phi2"])
    rep = verify_equivalence(
        mu, phi1, phi2,
        mode=config.get("mode", "hardy"),
        alpha=float(config.get("alpha", 0.0)),
        s=config.get("s"),
        box_family=_section(config, "box_family"),
        spec=_section(config, "quadrature"),
    )
    records = [_record(
        "equivalence",
        "box, kernel, and embedding verdicts agree (finite together)",
        {"measure": config["measure"], "phi1": config["phi1"],
         "phi2": config["phi2"], "mode": rep.mode, "s": rep.s},
        rep.as_dict(),
        "pass" if rep.coherent else "fail",
    )]
    verdict = None
    if rep.carleson is not None:
        verdict = "carleson" if rep.carleson else "not_carleson"
    ok = rep.coherent
    ok &= _expectation(config, "expect", verdict, records, "expect")
    return records, ok


@_command("embed-check")
def _run_embed(config: dict):
    _check_keys(config, {"phi1", "phi2", "variant", "alpha", "beta", "grid", "expect"})
    res = embed_check(
        parse_growth(config["phi1"]),
        parse_growth(config["phi2"]),
        config.get("variant", "hardy_to_bergman"),
        float(config.get("alpha", 0.0)),
        None if config.get("beta") is None else float(config["beta"]),
        _section(config, "grid"),
    )
    verdict = "holds" if res.holds else "fails"
    records = [_record(
        "embed-check",
        "phi1^{-1}(t) <= phi2^{-1}(C t^(2+alpha)) via edge-slope scan",
        {k: config.get(k) for k in ("phi1", "phi2", "variant", "alpha", "beta")},
        {"holds": res.holds, "constant": res.constant,
         "witness": res.witness, "edge": res.edge},
        "info",
    )]
    ok = _expectation(config, "expect", verdict, records, "expect")
    return records, ok


@_command("multiplier-classify")
def _run_multiplier(config: dict):
    _check_keys(config, {"phi1", "phi2", "variant", "alpha", "beta", "grid", "expect"})
    phi1 = parse_growth(config["phi1"])
    phi2 = parse_growth(config["phi2"])
    variant = config.get("variant", "hardy_to_bergman")
    alpha = float(config.get("alpha", 0.0))
    beta = None if config.get("beta") is None else float(config["beta"])
    prof = omega_profile(phi1, phi2, variant, alpha, beta, _section(config, "grid"))
    composed = derived_pair(phi1, phi2)[0]
    verdict = multiplier_space(
        prof, classify(phi1), classify(phi2), classify(composed)
    )
    records = [_record(
        "multiplier-space",
        "profile shape plus hypothesis checks decide the multiplier space",
        {k: config.get(k) for k in ("phi1", "phi2", "variant", "alpha", "beta")},
        {"profile": prof.classification, "bracket": list(prof.bracket),
         **verdict.as_dict()},
        "info",
    )]
    ok = _expectation(config, "expect", verdict.space, records, "expect")
    return records, ok


@_command("weak-test")
def _run_weak(config: dict):
    _check_keys(config, {"measure", "phi1", "phi2", "mode", "alpha",
                         "quadrature", "lambda_grid", "family"})
    mu = parse_measure(config["measure"])
    phi1 = parse_growth(config["phi1"])
    phi2 = parse_growth(config["phi2"])
    mode = config.get("mode", "hardy")
    alpha = float(config.get("alpha", 0.0))
    spec = _section(config, "quadrature")
    lams = _number_list(config, "lambda_grid", 0.0) if "lambda_grid" in config else None
    if mode == "hardy":
        weak_family = weak_hardy_family(phi1)
        strong_family = hardy_test_family(phi1, spec=spec)
    elif mode == "bergman":
        weak_family = bergman_test_family(phi1, alpha, spec=spec)
        strong_family = weak_family
    else:
        raise ConfigError(f"unknown weak-test mode {mode!r}")
    if "family" in config:
        weak_family = _explicit_family(config["family"], phi1, mode, alpha, spec)
        strong_family = weak_family
    weak = weak_type_constant(mu, phi2, weak_family, lambda_grid=lams)
    strong = embedding_constant(mu, phi2, strong_family, spec)
    dominated = all(
        wk <= sk * (1 + 1e-6)
        for (_, wk), (_, sk) in zip(weak.per_member, strong.per_member)
    )
    records = [_record(
        "weak-vs-strong",
        "the weak-type constant never exceeds the embedding constant",
        {"measure": config["measure"], "phi1": config["phi1"],
         "phi2": config["phi2"], "mode": mode},
        {"weak": weak.family_constant, "strong": strong.family_constant,
         "weak_members": list(map(list, weak.per_member)),
         "strong_members": list(map(list, strong.per_member))},
        "pass" if dominated else "fail",
        {"slack": 1e-6},
    )]
    return records, dominated


def _number_list(config: dict, key: str, above: float, default=None) -> list[float]:
    values = config.get(key, default)
    if not (isinstance(values, list) and values and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and math.isfinite(v) and v > above for v in values
    )):
        raise ConfigError(f"{key} must be a nonempty list of numbers > {above:g}, got {values!r}")
    return [float(v) for v in values]


def _positive_int(config: dict, key: str, default: int) -> int:
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    return value


@_command("maximal-suite")
def _run_maximal(config: dict):
    _check_keys(config, {"n_functions", "n_probes", "n_levels", "alphas"})
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    n_functions = _positive_int(config, "n_functions", 50)
    n_probes = _positive_int(config, "n_probes", 50)
    n_levels = _positive_int(config, "n_levels", 10)
    alphas = _number_list(config, "alphas", -1.0, [0.0, 1.0])
    onethird_bad, weak_bad, compare_bad = maximal_suite(
        seed, n_functions, n_probes, n_levels, alphas
    )

    values = {
        "one_third_violations": onethird_bad,
        "weak_type_violations": weak_bad,
        "dyadic_comparison_violations": compare_bad,
        "n_functions": n_functions,
        "seed": seed,
    }
    passed = onethird_bad == 0 and weak_bad == 0 and compare_bad == 0
    records = [_record(
        "maximal-suite",
        "one-third trick (factor 6), weak type (constant 2), dyadic "
        "comparison (factor 68) on seeded random step functions",
        {"seed": seed, "n_functions": n_functions},
        values,
        "pass" if passed else "fail",
    )]
    return records, passed


@_command("suite")
def _run_suite(config: dict):
    _check_keys(config, {"runs"})
    records = []
    all_ok = True
    for i, sub in enumerate(config.get("runs", [])):
        sub_records, ok = _dispatch(sub)
        for r in sub_records:
            r = dict(r)
            r["name"] = f"run[{i}].{r['name']}"
            records.append(r)
        all_ok &= ok
    return records, all_ok


def _dispatch(config: dict):
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in _COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; choose from {sorted(_COMMANDS)}"
        )
    return _COMMANDS[command](config)


def run(config: dict) -> dict:
    """Execute one config and assemble the deterministic report."""
    t0 = time.time()
    records, passed = _dispatch(config)
    body = {
        "tool": {"name": "orliczhp", "version": __version__},
        "command": config.get("command"),
        "config": _jsonable(config),
        "config_hash": hashlib.sha256(canonical_json(config).encode()).hexdigest(),
        "records": records,
        "suite_verdict": "pass" if passed else "fail",
    }
    body["timing"] = {"total_s": round(time.time() - t0, 3)}
    return body


def render_text(report: dict) -> str:
    lines = [
        f"orliczhp {report['tool']['version']} :: {report['command']}",
        f"config hash {report['config_hash'][:16]}",
    ]
    for rec in report["records"]:
        lines.append(f"[{rec['verdict']:>4}] {rec['name']}: {rec['claim']}")
        for key, val in rec["values"].items():
            lines.append(f"         {key} = {val}")
    lines.append(f"suite verdict: {report['suite_verdict']}")
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="orliczhp",
        description="Numerical testers for Carleson embeddings, maximal "
                    "operators, and pointwise multipliers on the upper half-plane.",
    )
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--assert", dest="assert_", action="store_true",
        help="turn verdict expectations into the process status",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        config["seed"] = args.seed

    try:
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - report and signal, never trace-dump
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    text = render_text(report) if args.format == "text" else json.dumps(
        _jsonable(report), indent=2, sort_keys=True
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.assert_ and report["suite_verdict"] != "pass":
        return EXIT_ASSERT
    return EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
