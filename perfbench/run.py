"""The benchmark: one workload, several passes, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; the library is taken
from ``src/`` of that checkout, never from an installed copy.  Every pass
is a fresh single-threaded process (``worker.py``) that sets up the
workload and runs the cases due in that pass once each; the passes run one
after another.  Metrics are built from each case's fastest pass, so a slow
stretch of a busy host costs a pass, not the result.  The pass count is
fixed by ``--seconds`` and the workload's nominal pass time, so every run
of a workload attempts the same whole rounds of cases.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one plain
pass and two traced passes, each over every case, and prints the
per-layer metrics of the faster traced pass, with the tracing overhead
against the plain pass; the counts of the two traced passes must agree
exactly.

Outputs are checked against ``oracles.py`` (each case's first pass) and
for identical digests across passes.  Results, per-pass files and spans go
to ``.perfbench/`` in the checkout.  The last line of standard output is
the result object; the exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
OUT = ROOT / ".perfbench"

# seconds of --seconds budgeted per pass; a run makes seconds // budget
# passes (at least two), whatever the host's speed
PASS_SECONDS = {
    "equivalence_volume": 15.0,
    "equivalence_atoms": 5.0,
    "cli_batch": 6.5,
}
MIN_PASSES = 2
RUN_TIMEOUT_S = 170.0


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, int(seconds // PASS_SECONDS[workload]))


def run_pass(workload: str, seed: int, index: int, traced: bool, every_case: bool,
             deadline: float) -> dict:
    """Spawn one worker and wait for it; returns its payload plus set-up time."""
    out = OUT / f"{workload}-seed{seed}-pass{index}{'-traced' if traced else ''}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--pass", str(index),
           "--every-case", str(int(every_case)), "--trace", str(int(traced)),
           "--out", str(out)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"pass {index} of {workload} overran the run deadline")
    if code != 0 or not out.exists():
        raise SystemExit(f"pass {index} of {workload} exited with code {code}")
    payload = json.loads(out.read_text(encoding="utf-8"))
    payload["setup_s"] = payload["ready"] - spawned
    return payload


def crosscheck_once() -> list[str]:
    """The closed-form cross-check, made once per checkout."""
    stamp = OUT / "closed-form-crosscheck.ok"
    if stamp.exists():
        return []
    fails = oracles.closed_form_crosscheck()
    if not fails:
        stamp.write_text("closed form agrees with 30-digit mpmath quadrature\n")
    return fails


def fastest(passes: list[dict]) -> dict[str, float]:
    """Each case's fastest time over the given passes."""
    best: dict[str, float] = {}
    for p in passes:
        for c in p["cases"]:
            if "seconds" in c:
                best[c["id"]] = min(best.get(c["id"], float("inf")), c["seconds"])
    return best


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "orliczhp" / "__init__.py").is_file():
        print(f"no src/orliczhp under {ROOT}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    failures: list[str] = []
    if args.workload == "equivalence_volume":
        failures += crosscheck_once()

    if args.trace:
        plan = [False, True, True]
    else:
        plan = [False] * passes_for(args.workload, args.seconds)
    passes = [run_pass(args.workload, args.seed, i, traced, bool(args.trace), deadline)
              for i, traced in enumerate(plan)]

    attempted = failed = 0
    first: dict[str, str] = {}      # case id -> digest of its first pass
    check = oracles.CHECKS[args.workload]
    for p in passes:
        for c, rec in zip(p["cases"], p["records"]):
            attempted += 1
            if "error" in c:
                failed += 1
                print(f"{c['id']} failed:\n{c['error']}", file=sys.stderr)
                continue
            if c["id"] not in first:
                first[c["id"]] = c["digest"]
                try:
                    failures += check(rec)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    failures.append(f"{c['id']}: output not as expected ({exc!r})")
            elif first[c["id"]] != c["digest"]:
                failures.append(f"{c['id']}: output differs from its first pass")

    if args.trace:
        traced = [p for p, t in zip(passes, plan) if t]
        counts = [p["trace"]["counts"] for p in traced]
        if any(c != counts[0] for c in counts):
            failures.append("per-layer counts differ between the traced passes")
        best = min(traced, key=lambda p: sum(c.get("seconds", 0.0) for c in p["cases"]))
        plain_s = sum(fastest([passes[0]]).values())
        traced_s = sum(fastest(traced).values())
        metrics = {k: {"value": v, "unit": "count"} for k, v in best["trace"]["counts"].items()}
        metrics.update({k: {"value": v, "unit": "s"} for k, v in best["trace"]["times"].items()})
        metrics["trace.overhead"] = {"value": traced_s / plain_s - 1.0, "unit": "ratio"}
        print(f"spans: {best['spans_file']}", file=sys.stderr)
    else:
        times = list(fastest(passes).values())
        metrics = {
            "cases_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "case_p50_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": min(p["setup_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": max(p["rss_kb"] for p in passes) / 1024.0, "unit": "MB"},
        }

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "passes": [{"setup_s": p["setup_s"], "rss_kb": p["rss_kb"],
                           "cases": p["cases"]} for p in passes],
               "failures": failures, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
