"""The benchmark's three workloads: seeded inputs, one pass of operations,
and the correctness check of every operation's output.

A workload is a fixed list of operations.  One pass runs them in order,
closed loop (each call starts after the previous one returned), in this
process and on one thread.  Every operation returns a plain, comparable
output value; the checks run on those values outside the timed region.

    figures      cli detect on the four figure presets
    solve-mix    a seeded deck of single-point solve_levels calls
    oracle-gate  cli compare on the four presets, plus a non-degeneracy
                 certificate (criterion 5) at each preset's base point
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from dwcross import cli, models, oracle, rootfind
from dwcross._kernels import sturm_counts

PRESETS = ("fig3", "fig5", "fig6a", "fig6b")

REFERENCE = Path(__file__).resolve().parent / "reference" / "figures.json"

# A barrier is opaque when width * sqrt(u * v0) exceeds this: the tunnelling
# factor exp(-width * sqrt(u * v0)) is then below double-precision epsilon.
OPAQUE_EXPONENT = 18.0

# Criterion-5 thresholds of the non-degeneracy certificate.
WRONSKIAN_AT_LEVELS_MAX = 1e-5
WRONSKIAN_AT_MIDPOINTS_MIN = 0.05

# Finest grid the solve-mix count check builds (interior points).
COUNT_GRID_CAP = 30000


@dataclass(frozen=True)
class Op:
    """One operation of a pass: run() is timed, check(output) is not.

    check returns None when the output is correct, else the reason."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Raised:
    """Output of an operation that raised instead of returning."""

    error: str
    message: str


def preset_config(preset: str) -> cli.RunConfig:
    return cli.parse_config(["compare", "--preset", preset])


def seeded_order(seed: int, items) -> list:
    order = list(items)
    random.Random(seed).shuffle(order)
    return order


# --- figures ----------------------------------------------------------------


def read_crossings(text: str) -> list[tuple[int, float, float]]:
    """(gap_index, lambda_star, gap_ev) rows of a detect CSV."""
    rows = []
    for line in text.splitlines()[1:]:
        gap_index, lam, gap, _ = line.split(",")
        rows.append((int(gap_index), float(lam), float(gap)))
    return rows


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def check_crossings(reference: dict, preset: str, output) -> str | None:
    if isinstance(output, Raised):
        return f"detect raised {output.error}: {output.message}"
    code, text = output
    if code != 0:
        return f"detect exit code {code}"
    ref = reference["presets"][preset]
    got = read_crossings(text)
    want = [tuple(row) for row in ref["crossings"]]
    got_counts = Counter(g for g, _, _ in got)
    want_counts = Counter(g for g, _, _ in want)
    if got_counts != want_counts:
        return f"crossings per gap index {dict(got_counts)}, reference {dict(want_counts)}"
    lam_tol = ref["lambda_tol"]
    gap_tol = reference["gap_rel_tol"]
    for (g, lam, gap), (_, lam_ref, gap_ref) in zip(sorted(got), sorted(want)):
        if abs(lam - lam_ref) > lam_tol:
            return f"gap {g}: lambda* {lam} vs reference {lam_ref} (tol {lam_tol})"
        if abs(gap - gap_ref) > gap_tol * abs(gap_ref):
            return f"gap {g}: gap {gap} vs reference {gap_ref} (rel tol {gap_tol})"
    return None


def figures_ops(seed: int, workdir: Path) -> list[Op]:
    reference = load_reference()
    ops = []
    for preset in seeded_order(seed, PRESETS):
        out = workdir / f"detect-{preset}.csv"
        argv = ["detect", "--preset", preset, "--out", str(out)]
        ops.append(
            Op(
                "detect",
                preset,
                _cli_call(argv, out),
                lambda output, p=preset: check_crossings(reference, p, output),
            )
        )
    return ops


def _cli_call(argv: list[str], out: Path) -> Callable[[], object]:
    def run():
        code = cli.main(argv)
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        return code, text

    return run


# --- solve-mix --------------------------------------------------------------

FAMILIES = ("m1", "m2", "m3", "m4")
N_LEVELS = tuple(range(1, 9))
V0_LOG10 = (0.0, 3.0)  # v0 drawn log-uniformly from [1, 1e3]
# A multiple of 4, so each row holds whole symmetric quarters.  Four strata
# give a deck of 128 solves: the work per deck (geometric mean of F
# evaluations per solve) still varies by about 1% between seeds, and the
# fast solves get about eight timed runs each in a 30-second run.
V0_STRATA = 4


@dataclass(frozen=True)
class SolveCase:
    model: models.ModelParams
    n_levels: int
    symmetric: bool

    @property
    def opaque(self) -> bool:
        height, width = barrier(self.model)
        return width * math.sqrt(models.UnitsConfig().u * height) > OPAQUE_EXPONENT

    def describe(self) -> str:
        return f"{self.model!r} n={self.n_levels}"


def barrier(model: models.ModelParams) -> tuple[float, float]:
    """(height in eV, width in A) of a rectangular barrier; (0, 0) for the
    delta barriers of m1 and m3."""
    if isinstance(model, models.M2Params):
        return model.v0, 2.0 * model.b
    if isinstance(model, models.M4Params):
        return model.v0, 2.0 * model.a
    return 0.0, 0.0


def _random_model(
    rng: random.Random, family: str, v0: float, symmetric: bool, width_frac: float
):
    """Geometry drawn uniformly; width_frac in [0, 1) places the barrier
    half-width (m2: b, m4: a) inside its range."""
    if family == "m1":
        a = rng.uniform(1.0, 4.0)
        return models.M1Params(v0, a, a if symmetric else rng.uniform(1.0, 4.0))
    if family == "m2":
        b = 0.5 + 1.5 * width_frac
        a = b + rng.uniform(1.0, 3.0)
        return models.M2Params(v0, a, b, a if symmetric else b + rng.uniform(1.0, 3.0))
    hw1 = rng.uniform(0.5, 3.0)
    hw2 = hw1 if symmetric else rng.uniform(0.5, 3.0)
    if family == "m3":
        return models.M3Params(v0, hw1, hw2)
    return models.M4Params(v0, hw1, hw2, 0.25 + 1.25 * width_frac)


def solve_deck(seed: int) -> list[SolveCase]:
    """Balanced deck of 4 families x 8 level counts x V0_STRATA cases.

    For each family the cases form a grid: rows are n_levels 1..8, and
    columns are log-uniform strata of v0 in [1, 1e3].  Within a row,
    barrier widths are Latin-hypercube strata assigned to the columns by
    a seeded permutation.  Exactly one case in four per row, and the same
    number per column, has exactly symmetric geometry.  The seed draws
    the permutations, the position inside every stratum, the remaining
    geometry and the deck order.
    """
    rng = random.Random(seed)
    lo, hi = V0_LOG10
    deck = []
    for family in FAMILIES:
        offsets = rng.sample(range(4), 4) + rng.sample(range(4), 4)
        for row, n in enumerate(N_LEVELS):
            widths = rng.sample(range(V0_STRATA), V0_STRATA)
            for k in range(V0_STRATA):
                symmetric = (k + offsets[row]) % 4 == 0
                v0 = 10.0 ** (lo + (hi - lo) * (k + rng.random()) / V0_STRATA)
                width_frac = (widths[k] + rng.random()) / V0_STRATA
                model = _random_model(rng, family, v0, symmetric, width_frac)
                deck.append(SolveCase(model, n, symmetric))
    rng.shuffle(deck)
    return deck


def count_check(
    model: models.ModelParams, units: models.UnitsConfig, levels
) -> str | None:
    """Back every returned level by the oracle's Sturm count on one grid.

    With tol the model's compare-gate tolerance and N(E) the number of
    finite-difference levels below E, level j must satisfy
    N(E_j - tol) <= j - 1 and N(E_j + tol) >= j.  The grid is refined
    from the oracle's default until its O(h^2) level error
    u S^2 h^2 / 12 is below tol / 4, capped at COUNT_GRID_CAP points.
    S^2 = E^2 + E sqrt(v0 / u) adds to the in-well term E^2 the error of
    the decay constant k = sqrt(u v0) inside a rectangular barrier, whose
    relative error k^2 h^2 / 24 moves a level by about E k h^2 / (12 d)
    for wells of width d >= 1 A.
    """
    if not levels or not all(math.isfinite(e) for e in levels):
        return f"non-finite or empty levels {levels}"
    if any(b < a for a, b in zip(levels, levels[1:])):
        return f"levels not ascending {levels}"
    tol = cli._GATE_TOLERANCE[models.model_kind(model)]
    e_top = max(levels[-1], 1.0)
    scale = math.sqrt(e_top * e_top + e_top * math.sqrt(barrier(model)[0] / units.u))
    sizing = 3.0 * e_top
    T = oracle.build_hamiltonian(model, units, oracle.OracleConfig(), e_top=sizing)
    h_need = math.sqrt(3.0 * tol / units.u) / scale
    points = min(COUNT_GRID_CAP, max(T.size, math.ceil((T.size + 1) * T.h / h_need)))
    if points > T.size:
        T = oracle.build_hamiltonian(model, units, oracle.OracleConfig(n_points=points), sizing)
    shifts = [e + s for e in levels for s in (-tol, tol)]
    counts = sturm_counts(T.diag, T.offdiag, shifts)
    for j, e in enumerate(levels, start=1):
        below, above = int(counts[2 * j - 2]), int(counts[2 * j - 1])
        if below > j - 1 or above < j:
            return (
                f"level {j} E={e:.6g}: N(E-{tol:g})={below}, N(E+{tol:g})={above} "
                f"on an n={T.size} grid"
            )
    return None


def check_solve(case: SolveCase, units: models.UnitsConfig, output) -> str | None:
    if isinstance(output, Raised):
        return f"{case.describe()}: raised {output.error}: {output.message}"
    if len(output) != case.n_levels:
        return f"{case.describe()}: {len(output)} levels returned"
    reason = count_check(case.model, units, list(output))
    return None if reason is None else f"{case.describe()}: {reason}"


def solve_mix_ops(seed: int, workdir: Path) -> list[Op]:
    units = models.UnitsConfig()
    ops = []
    for i, case in enumerate(solve_deck(seed)):

        def run(case=case):
            return tuple(rootfind.solve_levels(case.model, units, case.n_levels))

        ops.append(
            Op("solve", f"{i}:{models.model_kind(case.model)}", run,
               lambda output, case=case: check_solve(case, units, output))
        )
    return ops


def deck_shares(seed: int) -> dict:
    deck = solve_deck(seed)
    return {
        "cases": len(deck),
        "symmetric_share": sum(c.symmetric for c in deck) / len(deck),
        "opaque_share": sum(c.opaque for c in deck) / len(deck),
    }


# --- oracle-gate ------------------------------------------------------------


def certificate(preset: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Criterion-5 procedure at the preset's base point: Wronskian residuals
    at each level (tol_abs=1e-13) and at each midpoint between levels."""
    cfg = preset_config(preset)
    model, units = cfg.build_model(), cfg.build_units()
    levels = rootfind.solve_levels(
        model, units, cfg.levels, rootfind.RootfindConfig(tol_abs=1e-13)
    )
    ocfg = oracle.OracleConfig()
    at_levels = tuple(oracle.wronskian_constancy(model, units, e, ocfg) for e in levels)
    mids = [0.5 * (a + b) for a, b in zip(levels, levels[1:])]
    at_mids = tuple(oracle.wronskian_constancy(model, units, e, ocfg) for e in mids)
    return at_levels, at_mids


def check_certificate(output) -> str | None:
    if isinstance(output, Raised):
        return f"certificate raised {output.error}: {output.message}"
    at_levels, at_mids = output
    if max(at_levels) > WRONSKIAN_AT_LEVELS_MAX:
        return f"Wronskian residual {max(at_levels):.2e} at a level > {WRONSKIAN_AT_LEVELS_MAX}"
    if at_mids and min(at_mids) < WRONSKIAN_AT_MIDPOINTS_MIN:
        worst = min(at_mids)
        return f"Wronskian residual {worst:.3f} at a midpoint < {WRONSKIAN_AT_MIDPOINTS_MIN}"
    return None


def check_compare(output) -> str | None:
    if isinstance(output, Raised):
        return f"compare raised {output.error}: {output.message}"
    code, _ = output
    return None if code == 0 else f"compare exit code {code}"


def oracle_gate_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for preset in seeded_order(seed, PRESETS):
        out = workdir / f"compare-{preset}.csv"
        argv = ["compare", "--preset", preset, "--out", str(out)]
        ops.append(Op("compare", preset, _cli_call(argv, out), check_compare))
    for preset in seeded_order(seed + 1, PRESETS):
        ops.append(
            Op("certify", preset, lambda p=preset: certificate(p), check_certificate)
        )
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "figures": figures_ops,
    "solve-mix": solve_mix_ops,
    "oracle-gate": oracle_gate_ops,
}
