"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py        (from the root of a checkout)

Runs a few real cases of each workload through the library, requires every
oracle check to pass on them, then feeds each check a record with one
wrong value (a member K one grid step low, a kernel value off by 1e-6
relative, a flipped verdict, ...) and requires the check to reject it.
Exits 0 when every check behaves, 1 otherwise.  Takes about 15 s.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd().resolve()
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, fails: list[str], should_fail: bool) -> None:
    ok = bool(fails) == should_fail
    print(f"{'ok  ' if ok else 'BAD '} {label}" + (f"  [{fails[0][:90]}]" if fails else ""))
    if not ok:
        FAILURES.append(label)


def mutated(rec: dict, change) -> dict:
    out = copy.deepcopy(rec)
    change(out)
    return out


def scale(key: str, factor: float):
    """A change multiplying ``rec[key]`` by ``factor``."""
    return lambda rec: rec.__setitem__(key, rec[key] * factor)


def assign(key: str, value):
    return lambda rec: rec.__setitem__(key, value)


def one_step_low(rec: dict, i: int = 0) -> None:
    rec["members"][i][1] /= oracles.K_STEP


def report_values(rec: dict, name: str) -> dict:
    """The ``values`` of the CLI report record called ``name``."""
    return next(r["values"] for r in rec["report"]["records"] if r["name"] == name)


def in_report(name: str, change):
    """A change applied to the values of one CLI report record."""
    return lambda rec: change(report_values(rec, name))


def run_cases(cases, wanted) -> dict:
    return {c.id: c.record(c.run()) for c in cases if c.id in wanted}


def main() -> int:
    off = 1 + 1e-6
    expect("closed form vs 30-digit mpmath", oracles.closed_form_crosscheck(), False)
    wrong = lambda *a: oracles.kernel_power_integral(*a) * off
    expect("closed form off by 1e-6 vs mpmath", oracles.closed_form_crosscheck(wrong), True)

    vol = run_cases(workloads.build_equivalence_volume(0, Path()),
                    {"volume-p2-q4-hardy-a0", "volume-p2-q2-bergman-a1"})
    check = oracles.check_volume
    for cid, rec in vol.items():
        expect(f"{cid}: as computed", check(rec), False)
        for i in range(len(rec["members"])):
            expect(f"{cid}: member {i} K one grid step low",
                   check(mutated(rec, lambda r: one_step_low(r, i))), True)
        def kernel_off(r):
            r["ladder"][5][1] *= off
        expect(f"{cid}: kernel value off by 1e-6", check(mutated(rec, kernel_off)), True)
        expect(f"{cid}: box constant off by 1e-6",
               check(mutated(rec, scale("box_constant", off))), True)
        expect(f"{cid}: flipped verdict",
               check(mutated(rec, assign("carleson", not rec["carleson"]))), True)

    atoms = workloads.build_equivalence_atoms(0, Path())
    check = oracles.check_atoms
    for cid, rec in run_cases(atoms, {"atoms-c0-p2-q4-hardy", "atoms-c1-p2-q2-bergman"}).items():
        expect(f"{cid}: as computed", check(rec), False)
        def all_low(r):
            for i in range(len(r["members"])):
                one_step_low(r, i)
        expect(f"{cid}: every member K one grid step low", check(mutated(rec, all_low)), True)
        expect(f"{cid}: kernel constant off by 1e-6",
               check(mutated(rec, scale("kernel_constant", off))), True)
        expect(f"{cid}: box constant off by 1e-6",
               check(mutated(rec, scale("box_constant", off))), True)
        expect(f"{cid}: flipped verdict", check(mutated(rec, assign("carleson", False))), True)

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        cli = run_cases(workloads.build_cli_batch(0, Path(tmp)),
                        {"cli-maximal", "cli-lattice-a1", "cli-section6-powerlog",
                         "cli-weak-hardy"})
    check = oracles.check_cli
    for cid, rec in cli.items():
        expect(f"{cid}: as computed", check(rec), False)

    for label, cid, change in (
        ("run[3].doubling constant off by 1e-6", "cli-lattice-a1",
         in_report("run[3].doubling", scale("constant", off))),
        ("run[0].dini flipped", "cli-lattice-a1",
         in_report("run[0].dini", assign("passed", True))),
        ("run[7].embed-check flipped", "cli-lattice-a1",
         in_report("run[7].embed-check", assign("holds", False))),
        ("run[14].multiplier-space changed", "cli-lattice-a1",
         in_report("run[14].multiplier-space", assign("space", "H_infinity"))),
        ("one violation", "cli-maximal",
         in_report("maximal-suite", assign("weak_type_violations", 1))),
        ("flipped box verdict", "cli-section6-powerlog",
         in_report("run[0].box-sweep", assign("verdict", "carleson"))),
        ("flipped equivalence verdict", "cli-section6-powerlog",
         in_report("run[1].equivalence", assign("carleson", True))),
        ("nonzero exit code", "cli-weak-hardy", assign("exit", 3)),
    ):
        expect(f"{cid}: {label}", check(mutated(cli[cid], change)), True)

    def weak_above_strong(values: dict) -> None:
        values["weak_members"][0][1] = values["strong_members"][0][1] * oracles.K_STEP
    expect("cli-weak-hardy: weak one grid step above strong",
           check(mutated(cli["cli-weak-hardy"], in_report("weak-vs-strong", weak_above_strong))),
           True)

    print(f"{len(FAILURES)} check(s) misbehaved" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
