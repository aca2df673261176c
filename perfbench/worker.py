"""One measured pass of one workload, in a fresh process.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
                                --pass K --every-case 0|1 --trace 0|1 --out FILE

Puts ``DIR/src`` first on ``sys.path`` (no installed copy is used), builds
the workload's inputs, then runs the cases due in pass K (every case with
``--every-case 1``) once each, timing each call with
``time.perf_counter``.  ``ready`` is the ``time.monotonic`` reading (the
system-wide CLOCK_MONOTONIC) just before the first case, so the parent can
subtract its own spawn time to get the set-up time.  The result, one JSON
object, goes to ``--out``.  A traced pass also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--every-case", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    root = Path(args.root).resolve()
    out = Path(args.out)
    sys.path.insert(0, str(root / "src"))
    import orliczhp

    if Path(orliczhp.__file__).resolve().parent != root / "src" / "orliczhp":
        print(f"worker: imported orliczhp from {orliczhp.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = out.parent / f"{out.stem}.work"
    cases = [c for c in workloads.WORKLOADS[args.workload](args.seed, workdir)
             if args.every_case or args.pass_index % c.stride == c.offset]
    ready = time.monotonic()

    results = []
    records = []
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        entry = {"id": case.id}
        try:
            t0 = time.perf_counter()
            raw = case.run()
            entry["seconds"] = time.perf_counter() - t0
            rec = case.record(raw)
            entry["digest"] = hashlib.sha256(
                json.dumps(rec, sort_keys=True).encode()
            ).hexdigest()
            records.append(rec)
        except Exception:  # noqa: BLE001 - a failed case is counted, not fatal
            entry["error"] = traceback.format_exc(limit=4)
            records.append(None)
        results.append(entry)

    payload = {
        "ready": ready,
        "cases": results,
        "records": records,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        spans_path = out.with_suffix(".spans.jsonl")
        tracer.write_spans(spans_path)
        payload["trace"] = tracer.metrics()
        payload["spans_file"] = str(spans_path.relative_to(root))
    out.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
