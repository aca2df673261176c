"""The benchmark's workloads: inputs made from the seed, and the cases run
on them through the public API and the CLI.

Each workload function returns a list of ``Case`` objects.  ``run`` is the
timed call; ``record`` turns its result into a plain JSON-able dict that
the oracle checks in ``oracles.py`` read and whose digest is compared
across passes.  A case runs in the passes ``k`` with
``k % stride == offset``, so the few long cases can sit out some passes
while the many short ones get more samples.  Library functions are looked
up on their modules at call time, so a traced pass sees the wrapped
versions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from orliczhp import carleson, cli, corpus, growth, measure

E2 = math.e ** 2

VOLUME_PAIRS = ((2.0, 2.0), (2.0, 4.0), (1.0, 3.0))
VOLUME_MODES = (("hardy", 0.0), ("bergman", 0.0), ("bergman", 1.0))
ATOM_CLOUDS = 3
ATOM_RANDOM = 10
ATOM_X_SPAN = 2.0
ATOM_Y_DECADES = (-2.0, 1.5)
ATOM_PAIRS = ((2.0, 2.0), (2.0, 3.0), (2.0, 4.0))
ATOM_MODES = ("hardy", "bergman")

# lattices bundled into the CLI suite configs, one per weight exponent
GROWTH_EXPONENTS = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
EMBED_P = (1.0, 2.0)
EMBED_Q = (2.0, 3.0, 4.0, 6.0)
MULTIPLIER_P = (1.25, 2.0, 3.0)
MULTIPLIER_Q = (4.0, 6.0, 10.0)
LATTICE_ALPHAS = (0.0, 1.0, 2.0)
MAXIMAL_FUNCTIONS = 3


@dataclass
class Case:
    id: str
    run: Callable[[], Any]
    record: Callable[[Any], dict]
    stride: int = 1
    offset: int = 0


def _equivalence_record(rep, **inputs) -> dict:
    return {
        **inputs,
        "s": rep.s,
        "box_constant": rep.box.constant,
        "kernel_constant": rep.kernel.constant,
        "kernel_witness": [rep.kernel.witness.real, rep.kernel.witness.imag],
        "ladder": [list(v) for v in rep.kernel.ladder],
        "members": [list(m) for m in rep.embedding.per_member],
        "family_constant": rep.embedding.family_constant,
        "verdicts": dict(rep.verdicts),
        "coherent": rep.coherent,
        "carleson": rep.carleson,
    }


def _volume_case(p: float, q: float, mode: str, alpha: float) -> Case:
    def run():
        # the test family is built inside verify_equivalence
        return carleson.verify_equivalence(
            measure.WeightedVolume(0.0), growth.Power(p), growth.Power(q),
            mode=mode, alpha=alpha,
        )

    return Case(
        f"volume-p{p:g}-q{q:g}-{mode}-a{alpha:g}",
        run,
        lambda rep: _equivalence_record(rep, p=p, q=q, mode=mode, alpha=alpha, gamma=0.0),
    )


def build_equivalence_volume(seed: int, workdir: Path) -> list[Case]:
    """The 9-case weighted-volume set; it has no random input."""
    return [
        _volume_case(p, q, mode, alpha)
        for p, q in VOLUME_PAIRS
        for mode, alpha in VOLUME_MODES
    ]


def _atoms_case(ci: int, mu, p: float, q: float, mode: str) -> Case:
    def run():
        phi1 = growth.Power(p)
        heights = carleson.adapted_heights(mu)
        family = (
            carleson.hardy_test_family(phi1, heights) if mode == "hardy"
            else carleson.bergman_test_family(phi1, 0.0, heights)
        )
        rep = carleson.verify_equivalence(
            mu, phi1, growth.Power(q), mode=mode, alpha=0.0, family=family
        )
        return rep, family

    def record(out):
        rep, family = out
        rec = _equivalence_record(rep, p=p, q=q, mode=mode, alpha=0.0)
        rec["atoms"] = [list(a) for a in zip(mu.xs, mu.ys, mu.masses)]
        rec["norms"] = [m.source_norm for m in family]
        rec["heights"] = [m.f.z0.imag for m in family]
        return rec

    return Case(f"atoms-c{ci}-p{p:g}-q{q:g}-{mode}", run, record)


def atom_cloud(rng: np.random.Generator) -> measure.AtomicMeasure:
    """``corpus.random_atoms`` (|x| < 2, log-uniform heights 1e-2..10^1.5)
    plus one atom at each end of the height range, so that the height
    ladders, box families and test families have the same length for
    every seed."""
    cloud = corpus.random_atoms(rng, n_atoms=ATOM_RANDOM, x_span=ATOM_X_SPAN,
                                y_decades=ATOM_Y_DECADES)
    xs = rng.uniform(-ATOM_X_SPAN, ATOM_X_SPAN, 2)
    ys = 10.0 ** np.asarray(ATOM_Y_DECADES)
    ms = rng.exponential(1.0, 2)
    return measure.AtomicMeasure(cloud.xs + tuple(xs), cloud.ys + tuple(ys),
                                 cloud.masses + tuple(ms))


def build_equivalence_atoms(seed: int, workdir: Path) -> list[Case]:
    """Seeded 12-atom clouds against Power pairs in hardy and bergman
    alpha=0 modes.

    The clouds stay near the families' base point x = 0, and the pairs keep
    p = 2: wider clouds and p = 1 in bergman mode make some seeds' verdicts
    incoherent through two known faults of the embedding search (its
    height ladder ignores horizontal offsets, and its K grid stops at 1e4).
    """
    rng = np.random.default_rng([seed, 1])
    clouds = [atom_cloud(rng) for _ in range(ATOM_CLOUDS)]
    return [
        _atoms_case(ci, mu, p, q, mode)
        for ci, mu in enumerate(clouds)
        for p, q in ATOM_PAIRS
        for mode in ATOM_MODES
    ]


def _lattice_suite(alpha: float) -> dict:
    runs = [{"command": "classify-growth", "phi": f"power({p:g})"} for p in GROWTH_EXPONENTS]
    runs += [
        {"command": "embed-check", "phi1": f"power({p:g})", "phi2": f"power({q:g})",
         "alpha": alpha}
        for p in EMBED_P for q in EMBED_Q
    ]
    runs += [
        {"command": "multiplier-classify", "phi1": f"power({p:g})",
         "phi2": f"power({q:g})", "alpha": alpha}
        for p in MULTIPLIER_P for q in MULTIPLIER_Q
    ]
    return {"command": "suite", "runs": runs}


def _section6_suite(phi2: str) -> dict:
    mu = {"kind": "section6", "phi1": "power(2)", "phi2": phi2}
    boxes = {"j_min": -5, "j_max": 5}
    return {"command": "suite", "runs": [
        {"command": "carleson-test", "measure": mu,
         "phi": f"compose_inv({phi2}, power(2))", "s": 1.0, "box_family": boxes},
        {"command": "equivalence", "measure": mu, "phi1": "power(2)", "phi2": phi2,
         "mode": "hardy", "box_family": boxes},
    ]}


def cli_configs(seed: int) -> dict[str, dict]:
    """The CLI batch: case id -> config."""
    rng = np.random.default_rng([seed, 2])
    cloud = corpus.random_atoms(rng, n_atoms=6)
    configs = {
        "maximal": {"command": "maximal-suite", "seed": int(rng.integers(2 ** 31)),
                    "n_functions": MAXIMAL_FUNCTIONS},
    }
    configs |= {f"lattice-a{a:g}": _lattice_suite(a) for a in LATTICE_ALPHAS}
    return configs | {
        "section6-power": _section6_suite("power(4)"),
        "section6-powerlog": _section6_suite(f"powerlog(2, 1, {E2!r})"),
        "weak-hardy": {
            "command": "weak-test",
            "measure": {"kind": "atomic",
                        "atoms": [list(a) for a in zip(cloud.xs, cloud.ys, cloud.masses)]},
            "phi1": "power(2)", "phi2": "power(4)", "mode": "hardy",
        },
    }


# CLI cases that take seconds run in every other pass, alternating
CLI_LONG_CASES = ("section6-power", "weak-hardy")


def _cli_case(case_id: str, config: dict, workdir: Path) -> Case:
    cfg_path = workdir / f"{case_id}.json"
    out_path = workdir / f"{case_id}.report.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    def run():
        return cli.main(["--config", str(cfg_path), "--format", "json",
                         "--out", str(out_path)])

    def record(code):
        report = json.loads(out_path.read_text(encoding="utf-8"))
        report.pop("timing", None)
        return {"case": case_id, "config": config, "exit": code, "report": report}

    if case_id in CLI_LONG_CASES:
        return Case(f"cli-{case_id}", run, record, 2, CLI_LONG_CASES.index(case_id))
    return Case(f"cli-{case_id}", run, record)


def build_cli_batch(seed: int, workdir: Path) -> list[Case]:
    workdir.mkdir(parents=True, exist_ok=True)
    return [_cli_case(cid, cfg, workdir) for cid, cfg in cli_configs(seed).items()]


WORKLOADS = {
    "equivalence_volume": build_equivalence_volume,
    "equivalence_atoms": build_equivalence_atoms,
    "cli_batch": build_cli_batch,
}
