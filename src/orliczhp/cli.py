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
import hashlib
import json
import math
import sys
import time
from typing import Any, Optional

import numpy as np

from . import __version__
from .config import (
    GROWTH, REQUIRED, VARIANT, WEIGHT, ConfigError, enum, integer, list_of, number,
    parse_measure, parse_test_function, section,
)
from .config import parse_fields as _parse_fields, pick as _pick  # not part of cli's API
from .growth import LogGrid, classify, derived_pair
from .growth import _classification_memo  # one memo per run, not part of cli's API
from .integrals import QuadratureSpec
from .maximal import maximal_suite
from .measure import BoxFamily, carleson_box_constant
from .carleson import (
    NormedMember,
    embedding_constant,
    hardy_test_family,
    bergman_test_family,
    verify_equivalence,
    weak_hardy_family,
    weak_type_constant,
)
from .multipliers import embed_check, multiplier_space, omega_profile
from .spaces import bergman_norm, hardy_norm

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


# schema entries shared by the commands: key -> (parser, default or REQUIRED)
_SEED = (integer(0), 0)
_MEASURE = (lambda spec: parse_measure(spec), REQUIRED)  # see config.GROWTH
_BOXES = (section(BoxFamily), BoxFamily())
_QUADRATURE = (section(QuadratureSpec), QuadratureSpec())
_GRID = (section(LogGrid), LogGrid())
_CARLESON = (enum("carleson", "not_carleson"), None)
_EMBEDDING = dict(phi1=GROWTH, phi2=GROWTH, variant=VARIANT, alpha=WEIGHT,
                  beta=(number(-1.0), None), grid=_GRID)


def _command(name: str, **schema):
    """Register a handler under ``name``.  The config's keys are ``schema``'s
    plus ``command`` and ``seed`` (a nonnegative integer); the handler gets
    the raw config, for the report, and its own keys' typed values."""
    full = {"command": (str, REQUIRED), "seed": _SEED, **schema}

    def deco(fn):
        _COMMANDS[name] = lambda config: fn(config, **{
            key: value for key, value in _parse_fields(config, full, name).items()
            if key in schema})
        return fn
    return deco


def _expectation(name: str, expected, actual, records: list) -> bool:
    """Record an expectation check; an absent (None) expectation passes."""
    if expected is None:
        return True
    ok = expected == actual
    records.append(_record(
        name, f"expected {expected!r}", {"expected": expected},
        {"actual": actual}, "pass" if ok else "fail",
    ))
    return ok


def _explicit_family(specs, functions, phi1, mode: str, alpha: float, spec: QuadratureSpec):
    """Normed test family from explicit test-function specs."""
    members = []
    for i, (fn_spec, f) in enumerate(zip(specs, functions)):
        if mode == "hardy":
            norm = hardy_norm(f, phi1, spec=spec).luxembourg_sup
        else:
            norm = bergman_norm(f, phi1, alpha, spec=spec).luxembourg
        if norm <= 0:
            raise ConfigError(f"family member {i} has zero norm in the source space")
        members.append(NormedMember(
            f"{fn_spec['kind']}[{i}]", f, norm,
            float(getattr(f, "natural_scale", 1.0)),
        ))
    return members


# ---------------------------------------------------------------------------
# Command handlers: each returns (records, passed)
# ---------------------------------------------------------------------------

@_command("classify-growth", phi=GROWTH, grid=_GRID,
          expect_nabla2=(enum(True, False), None), expect_tilde=(enum(True, False), None))
def _run_classify(config: dict, phi, grid, expect_nabla2, expect_tilde):
    cls = classify(phi, grid)
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
            "int_0^t phi(s)/s^2 ds <= C phi(t)/t (cumulative over the grid cells)",
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
    ok = _expectation("expect_nabla2", expect_nabla2, cls.nabla2_passed, records)
    ok &= _expectation("expect_tilde", expect_tilde, cls.tilde_passed, records)
    return records, ok


@_command("carleson-test", measure=_MEASURE, phi=GROWTH, s=(number(0.0), 1.0),
          box_family=_BOXES, quadrature=_QUADRATURE, expect=_CARLESON)
def _run_carleson_test(config: dict, measure, phi, s, box_family, quadrature, expect):
    sweep = carleson_box_constant(measure, phi, s, box_family, quadrature)
    verdict = "carleson" if sweep.verdict.finite else "not_carleson"
    records = [_record(
        "box-sweep",
        "sup over the box family of mu(Q_I) * phi(1/|I|^s)",
        {"measure": config["measure"], "phi": config["phi"], "s": s},
        {
            "constant": sweep.constant,
            "witness": None if sweep.witness is None else
                [sweep.witness.center_x, sweep.witness.length],
            "divergent_mass": sweep.verdict.reason == "divergent",
            "trend": sweep.verdict.trend,
            "verdict": verdict,
        },
        "info",
    )]
    ok = _expectation("expect", expect, verdict, records)
    return records, ok


@_command("equivalence", measure=_MEASURE, phi1=GROWTH, phi2=GROWTH,
          mode=(enum("hardy", "bergman", "raw"), "hardy"), alpha=WEIGHT,
          s=(number(0.0), None), box_family=_BOXES, quadrature=_QUADRATURE, expect=_CARLESON)
def _run_equivalence(config: dict, measure, phi1, phi2, mode, alpha, s, box_family,
                     quadrature, expect):
    if mode == "raw" and s is None:
        raise ConfigError("equivalence mode raw needs s")
    rep = verify_equivalence(measure, phi1, phi2, mode=mode, alpha=alpha, s=s,
                             box_family=box_family, spec=quadrature)
    records = [_record(
        "equivalence",
        "box, kernel, and embedding verdicts agree (finite together)",
        {"measure": config["measure"], "phi1": config["phi1"],
         "phi2": config["phi2"], "mode": rep.mode, "s": rep.s},
        rep.as_dict(),
        "pass" if rep.coherent else "fail",
    )]
    verdict = {True: "carleson", False: "not_carleson", None: None}[rep.carleson]
    return records, rep.coherent & _expectation("expect", expect, verdict, records)


@_command("embed-check", **_EMBEDDING, expect=(enum("holds", "fails"), None))
def _run_embed(config: dict, phi1, phi2, variant, alpha, beta, grid, expect):
    if variant == "bergman_to_bergman" and beta is None:
        raise ConfigError("variant bergman_to_bergman needs beta")
    res = embed_check(phi1, phi2, variant, alpha, beta, grid)
    verdict = "holds" if res.holds else "fails"
    records = [_record(
        "embed-check",
        "phi1^{-1}(t) <= phi2^{-1}(C t^(2+alpha)) via edge-slope scan",
        {k: config.get(k) for k in ("phi1", "phi2", "variant", "alpha", "beta")},
        {"holds": res.holds, "constant": res.constant,
         "witness": res.witness, "edge": res.edge},
        "info",
    )]
    ok = _expectation("expect", expect, verdict, records)
    return records, ok


@_command("multiplier-classify", **_EMBEDDING, expect=(enum(
    "H_infinity", "zero_space", "H_infinity_omega", "out_of_theorem"), None))
def _run_multiplier(config: dict, phi1, phi2, variant, alpha, beta, grid, expect):
    if variant == "bergman_to_bergman" and beta is None:
        raise ConfigError("variant bergman_to_bergman needs beta")
    prof = omega_profile(phi1, phi2, variant, alpha, beta, grid)
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
    ok = _expectation("expect", expect, verdict.space, records)
    return records, ok


@_command("weak-test", measure=_MEASURE, phi1=GROWTH, phi2=GROWTH,
          mode=(enum("hardy", "bergman"), "hardy"), alpha=WEIGHT, quadrature=_QUADRATURE,
          lambda_grid=(list_of(number(0.0)), None),
          family=(list_of(parse_test_function), None))
def _run_weak(config: dict, measure, phi1, phi2, mode, alpha, quadrature, lambda_grid,
              family):
    if family is not None:
        weak_family = _explicit_family(config["family"], family, phi1, mode, alpha, quadrature)
        strong_family = weak_family
    elif mode == "hardy":
        weak_family = weak_hardy_family(phi1)
        strong_family = hardy_test_family(phi1, spec=quadrature)
    else:
        weak_family = bergman_test_family(phi1, alpha, spec=quadrature)
        strong_family = weak_family
    weak = weak_type_constant(measure, phi2, weak_family, lambda_grid=lambda_grid)
    strong = embedding_constant(measure, phi2, strong_family, quadrature)
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


@_command("maximal-suite", seed=_SEED, n_functions=(integer(1), 50),
          n_probes=(integer(1), 50), n_levels=(integer(1), 10),
          alphas=(list_of(number(-1.0)), [0.0, 1.0]))
def _run_maximal(config: dict, seed, n_functions, n_probes, n_levels, alphas):
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


@_command("suite", runs=(list_of(lambda run: run), REQUIRED))
def _run_suite(config: dict, runs):
    records = []
    all_ok = True
    for i, sub in enumerate(runs):
        sub_records, ok = _dispatch(sub)
        for r in sub_records:
            r = dict(r)
            r["name"] = f"run[{i}].{r['name']}"
            records.append(r)
        all_ok &= ok
    return records, all_ok


def _dispatch(config: dict):
    return _pick(config, "command", _COMMANDS, "config")(config)


def run(config: dict) -> dict:
    """Execute one config and assemble the deterministic report."""
    t0 = time.time()
    with _classification_memo():
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
    if args.seed is not None and isinstance(config, dict):
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
