"""Output checks made apart from the program.

Every check takes the plain records built in ``workloads.py`` and returns
a list of failure messages (empty when the record is right).  Nothing here
imports ``orliczhp``: the expected values come from closed forms, brute
force sums over the atoms, and the statements of the theorems.  The grids
below restate the documented defaults the program samples on, since a
sampled supremum is defined by its grid.

The closed form behind the weighted-volume checks: for
``f = A * y0^e / |w - conj(z0)|^e`` (base point ``z0 = i y0``),

    int |f|^r y^g dA = A^r * B(1/2, (e r - 1)/2) * B(g + 1, e r - g - 2) * y0^(g + 2),

the x-integral giving the first beta value and the height integral the
second.  ``closed_form_crosscheck`` compares it once with 30-digit mpmath
quadrature.
"""

from __future__ import annotations

import math

import numpy as np

K_GRID = np.geomspace(1e-4, 1e4, 201)            # embedding K grid
K_STEP = 10.0 ** (8.0 / 200.0)
HARDY_NORM_HEIGHTS = np.geomspace(1e-4, 1e4, 65)  # hardy_norm's line heights
KERNEL_LADDER = tuple(2.0 ** k for k in range(-8, 9))
MEMBER_HEIGHTS = tuple(2.0 ** k for k in range(-4, 5))
BOX_J = (-10, 10)                                 # default box family
BOX_EXTENT = 16.0
BOX_STEP_FRACTION = 0.25

REL_VALUE = 1e-8      # quadrature values against closed forms
REL_EXACT = 1e-9      # sums the program and the oracle both do exactly


def beta(a: float, b: float) -> float:
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def kernel_power_integral(amp: float, y0: float, e: float, r: float, g: float) -> float:
    """``int |A y0^e / |w - conj(i y0)|^e|^r y^g dA`` in closed form."""
    return (amp ** r * beta(0.5, (e * r - 1.0) / 2.0)
            * beta(g + 1.0, e * r - g - 2.0) * y0 ** (g + 2.0))


def closed_form_crosscheck(closed_form=None) -> list[str]:
    """The closed form (``kernel_power_integral`` unless another is given)
    against 30-digit nested mpmath quadrature."""
    import mpmath

    fails = []
    with mpmath.workdps(30):
        amp, y0, e, r, g = mpmath.mpf(1), mpmath.mpf("0.5"), 4, 2, 1
        def f(x, y):
            d2 = x * x + (y + y0) ** 2
            return (amp * y0 ** e) ** r * d2 ** (-mpmath.mpf(e * r) / 2) * y ** g
        quad = mpmath.quad(
            lambda y: mpmath.quad(lambda x: f(x, y), [-mpmath.inf, 0, mpmath.inf]),
            [0, y0, mpmath.inf],
        )
        closed = (closed_form or kernel_power_integral)(1.0, 0.5, e, r, g)
        if abs(float(quad) / closed - 1.0) > 1e-13:
            fails.append(f"closed form {closed!r} vs mpmath {mpmath.nstr(quad, 20)}")
    return fails


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a)


def _member_height(label: str) -> float:
    return float(label.split("y0=", 1)[1].split(")", 1)[0])


# ---------------------------------------------------------------------------
# equivalence_volume
# ---------------------------------------------------------------------------

def _volume_k(p, q, mode, alpha, gamma, y0) -> float:
    """Closed-form embedding constant of one normalized member."""
    if mode == "hardy":
        e, amp = 2.0, y0 ** (-1.0 / p)
        # line modular at height h: A^p y0^2p B(1/2, p - 1/2) (h + y0)^(1 - 2p)
        lines = (amp ** p * y0 ** (2 * p) * beta(0.5, p - 0.5)
                 * (HARDY_NORM_HEIGHTS + y0) ** (1 - 2 * p))
        norm = float(np.max(lines)) ** (1.0 / p)
    else:
        e, amp = 4.0 + 2.0 * alpha, y0 ** (-(2.0 + alpha) / p)
        norm = kernel_power_integral(amp, y0, e, p, alpha) ** (1.0 / p)
    return kernel_power_integral(amp, y0, e, q, gamma) ** (1.0 / q) / norm


def check_volume(rec: dict) -> list[str]:
    p, q, mode, alpha, gamma = rec["p"], rec["q"], rec["mode"], rec["alpha"], rec["gamma"]
    s = 1.0 if mode == "hardy" else 2.0 + alpha
    fails = []
    heights = [h for h, _ in rec["ladder"]]
    if heights != list(KERNEL_LADDER):
        fails.append(f"kernel ladder heights {heights}")
    for y, value in rec["ladder"]:
        want = kernel_power_integral(y ** (-s / p), y, 2.0 * s, q, gamma)
        if _rel(value, want) > REL_VALUE:
            fails.append(f"kernel value at y={y:g}: {value!r}, closed form {want!r}")
    box = float(max(L ** (2.0 + gamma) / (1.0 + gamma) * L ** (-s * q / p)
              for L in 2.0 ** np.arange(BOX_J[0], BOX_J[1] + 1)))
    if _rel(rec["box_constant"], box) > REL_EXACT:
        fails.append(f"box constant {rec['box_constant']!r}, closed form {box!r}")
    if len(rec["members"]) != len(MEMBER_HEIGHTS):
        fails.append(f"{len(rec['members'])} family members, expected {len(MEMBER_HEIGHTS)}")
    for (label, k), y0 in zip(rec["members"], MEMBER_HEIGHTS):
        if _rel(_member_height(label), y0) > 1e-5:
            fails.append(f"member {label} out of order, expected y0={y0:g}")
        want = _volume_k(p, q, mode, alpha, gamma, y0)
        if not (want * (1 - REL_VALUE) <= k <= want * K_STEP * (1 + REL_VALUE)):
            fails.append(f"member {label}: K={k!r} outside [{want!r}, one grid step above]")
    expect = abs(s * q / p - (2.0 + gamma)) < 1e-12
    if not rec["coherent"] or rec["carleson"] is not expect:
        fails.append(f"verdict carleson={rec['carleson']} coherent={rec['coherent']}, "
                     f"expected carleson={expect} (sq/p={s * q / p:g})")
    return fails


# ---------------------------------------------------------------------------
# equivalence_atoms
# ---------------------------------------------------------------------------

def _box_family(xs, ys):
    """The default box family extended past the atoms' heights.

    Yields each length with the centres of its boxes that lie within a
    length and a step of some atom; every other box of the family holds no
    atom, so leaving it out cannot change the supremum.
    """
    j_min = min(BOX_J[0], int(math.floor(math.log2(float(ys.min())))) - 1)
    extent = max(BOX_EXTENT, float(np.abs(xs).max()) + float(ys.max()))
    j_max = max(BOX_J[1], int(math.ceil(math.log2(2.0 * extent))) + 1)
    for j in range(j_min, j_max + 1):
        L = 2.0 ** j
        if L >= 2.0 * extent:
            yield L, np.array([0.0])
            continue
        step = L * BOX_STEP_FRACTION
        k = np.arange(int(math.floor(2.0 * extent / step)) + 1)
        near = np.zeros(k.size, dtype=bool)
        for x in xs:
            lo = int(math.floor((x + extent - L) / step)) - 1
            hi = int(math.ceil((x + extent + L) / step)) + 1
            near[max(lo, 0):max(hi + 1, 0)] = True
        yield L, -extent + step * k[near]


def _kernel_sum(xs, ys, ms, p, q, s, z: complex) -> float:
    x, y = z.real, z.imag
    amp = (1.0 / y ** s) ** (1.0 / p)
    k = amp * y ** (2 * s) / ((xs - x) ** 2 + (ys + y) ** 2) ** s
    return float(np.sum(ms * k ** q))


def check_atoms(rec: dict) -> list[str]:
    p, q, mode = rec["p"], rec["q"], rec["mode"]
    s = 1.0 if mode == "hardy" else 2.0
    xs, ys, ms = (np.array(c, dtype=float) for c in zip(*rec["atoms"]))
    live = ms > 0
    xs, ys, ms = xs[live], ys[live], ms[live]
    fails = []
    if not rec["coherent"] or rec["carleson"] is not True:
        fails.append(f"verdicts {rec['verdicts']}, expected coherent and Carleson")

    best = 0.0
    for L, centers in _box_family(xs, ys):
        inside = ((xs[None, :] >= centers[:, None] - 0.5 * L)
                  & (xs[None, :] < centers[:, None] + 0.5 * L)
                  & (ys[None, :] < L))
        best = max(best, float((inside * ms[None, :]).sum(axis=1).max()) * L ** (-s * q / p))
    if _rel(rec["box_constant"], best) > REL_EXACT:
        fails.append(f"box constant {rec['box_constant']!r}, brute force {best!r}")

    witness = complex(*rec["kernel_witness"])
    at_witness = _kernel_sum(xs, ys, ms, p, q, s, witness)
    if _rel(rec["kernel_constant"], at_witness) > REL_EXACT:
        fails.append(f"kernel constant {rec['kernel_constant']!r}, direct sum at witness "
                     f"{at_witness!r}")
    for x, y in zip(xs, ys):
        direct = _kernel_sum(xs, ys, ms, p, q, s, complex(x, y))
        if rec["kernel_constant"] < direct * (1 - REL_EXACT):
            fails.append(f"kernel constant {rec['kernel_constant']!r} below the direct "
                         f"sum {direct!r} at atom ({x:g}, {y:g})")

    for (label, k), norm, y0 in zip(rec["members"], rec["norms"], rec["heights"]):
        if mode == "hardy":
            f = y0 ** (-1.0 / p) * y0 ** 2 / (xs ** 2 + (ys + y0) ** 2)
        else:
            f = y0 ** (-2.0 / p) * y0 ** 4 / (xs ** 2 + (ys + y0) ** 2) ** 2
        sums = np.array([np.sum(ms * (f / (kk * norm)) ** q) for kk in K_GRID])
        ok = np.flatnonzero(sums <= 1.0)
        if ok.size == 0:
            if k != math.inf:
                fails.append(f"member {label}: K={k!r}, but no grid K has atom sum <= 1")
            continue
        i = int(ok[0])
        allowed = {float(K_GRID[i])}
        if abs(sums[i] - 1.0) <= REL_EXACT and i + 1 < K_GRID.size:
            allowed.add(float(K_GRID[i + 1]))
        if i > 0 and abs(sums[i - 1] - 1.0) <= REL_EXACT:
            allowed.add(float(K_GRID[i - 1]))
        if not any(_rel(k, a) <= 1e-12 for a in allowed):
            fails.append(f"member {label}: K={k!r}, smallest grid K with atom sum <= 1 "
                         f"is {float(K_GRID[i])!r}")
    return fails


# ---------------------------------------------------------------------------
# cli_batch
# ---------------------------------------------------------------------------

def _power_exponent(literal: str) -> float:
    if not (literal.startswith("power(") and literal.endswith(")")):
        raise ValueError(f"not a power literal: {literal!r}")
    return float(literal[len("power("):-1])


def _check_suite_run(i: int, run: dict, values: dict) -> list[str]:
    cmd = run["command"]
    fails = []
    if cmd == "classify-growth":
        p = _power_exponent(run["phi"])
        doubling, dini = values["doubling"], values["dini"]
        if doubling["constant"] is None or _rel(doubling["constant"], 2.0 ** p) > REL_EXACT:
            fails.append(f"run[{i}] power({p:g}) doubling constant {doubling['constant']!r}, "
                         f"expected 2^p = {2.0 ** p!r}")
        if dini["passed"] is not (p > 1.0):
            fails.append(f"run[{i}] power({p:g}) Dini passed={dini['passed']}, expected {p > 1.0}")
    elif cmd == "embed-check":
        p, q = _power_exponent(run["phi1"]), _power_exponent(run["phi2"])
        expect = abs(q / p - (2.0 + run["alpha"])) < 1e-12
        if values["embed-check"]["holds"] is not expect:
            fails.append(f"run[{i}] embed-check p={p:g} q={q:g} alpha={run['alpha']:g}: "
                         f"holds={values['embed-check']['holds']}, expected {expect}")
    elif cmd == "multiplier-classify":
        p, q = _power_exponent(run["phi1"]), _power_exponent(run["phi2"])
        e = 1.0 / p - (2.0 + run["alpha"]) / q
        expect = ("H_infinity" if abs(e) < 1e-12
                  else "zero_space" if e > 0 else "H_infinity_omega")
        got = values["multiplier-space"]["space"]
        if got != expect:
            fails.append(f"run[{i}] multiplier p={p:g} q={q:g} alpha={run['alpha']:g}: "
                         f"{got}, expected {expect} (e={e:g})")
    elif cmd == "carleson-test":
        # section 6: Carleson for g = phi2 o phi1^{-1} iff g satisfies Dini;
        # t^2 does, t log(e^2 + t)-type growth does not
        expect = "carleson" if run["measure"]["phi2"] == "power(4)" else "not_carleson"
        got = values["box-sweep"]["verdict"]
        if got != expect:
            fails.append(f"run[{i}] section-6 box verdict {got}, expected {expect}")
    elif cmd == "equivalence":
        expect = run["measure"]["phi2"] == "power(4)"
        eq = values["equivalence"]
        if not eq["coherent"] or eq["carleson"] is not expect:
            fails.append(f"run[{i}] section-6 equivalence carleson={eq['carleson']} "
                         f"coherent={eq['coherent']}, expected carleson={expect}")
    else:
        fails.append(f"run[{i}]: no oracle for command {cmd!r}")
    return fails


def check_cli(rec: dict) -> list[str]:
    config, report = rec["config"], rec["report"]
    fails = []
    if rec["exit"] != 0:
        fails.append(f"exit code {rec['exit']}")
    values: dict = {}
    for r in report["records"]:
        head, _, name = r["name"].rpartition(".")
        values.setdefault(head, {})[name] = r["values"]
    cmd = config["command"]
    if cmd == "suite":
        for i, run in enumerate(config["runs"]):
            fails += _check_suite_run(i, run, values.get(f"run[{i}]", {}))
    elif cmd == "maximal-suite":
        v = values[""]["maximal-suite"]
        bad = {k: v[k] for k in ("one_third_violations", "weak_type_violations",
                                 "dyadic_comparison_violations") if v[k] != 0}
        if bad or v["n_functions"] != config["n_functions"]:
            fails.append(f"maximal-suite {v}")
    elif cmd == "weak-test":
        v = values[""]["weak-vs-strong"]
        if len(v["weak_members"]) != len(v["strong_members"]) or not v["weak_members"]:
            fails.append(f"member lists {len(v['weak_members'])} "
                         f"vs {len(v['strong_members'])}")
        for (label, wk), (_, sk) in zip(v["weak_members"], v["strong_members"]):
            if not wk <= sk:
                fails.append(f"{label} weak {wk!r} > strong {sk!r}")
    else:
        fails.append(f"no oracle for command {cmd!r}")
    return [f"{rec['case']}: {m}" for m in fails]


CHECKS = {
    "equivalence_volume": check_volume,
    "equivalence_atoms": check_atoms,
    "cli_batch": check_cli,
}
