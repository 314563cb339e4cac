"""Evolve level sets over a slowly varied well parameter and locate the
gap minima where adjacent eigenvalue curves repel (avoided crossings).

Every grid point is solved independently (no continuation seeding): since
1D bound levels never cross, ascending order at each point is already the
adiabatic labeling, and independent solves cannot mislabel levels near a
throat.  The points are independent rows of one scan and one lockstep
refinement (rootfind.scan_brackets and refine_rows), so that each array
call of the characteristic function serves many points, but each with
its own window, count and brackets, and each comes out as that point
would in any other sweep.  The scan reads F and the count N
(char_values); the refinement reads F alone (f_values).  Detected gap
minima are refined by Brent's minimiser on the squared gap, which near an
avoided crossing is a parabola in the swept parameter, all crossings in
lockstep: each round probes every crossing still open with one scan.
Each probe finds the two flanking levels by their count indices,
scanning from e_min up to a top taken from the table, and refines them
on the scalar F (see rootfind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Callable, Generator

import numpy as np

from .errors import ConfigError, ModelMismatchError, NonConvergenceError
from .models import ModelParams, UnitsConfig, characteristic_fn
from .rootfind import RootfindConfig, _start_top, refine_levels, refine_rows, scan_brackets

__all__ = [
    "SweepSpec",
    "SpectrumTable",
    "AvoidedCrossing",
    "sweep_levels",
    "gap_curves",
    "detect_avoided_crossings",
    "edge_candidates",
    "effective_levels",
    "default_gap_ceiling",
]

# The search for a gap minimum shrinks its lambda interval to this
# fraction of the full sweep window.
_LAMBDA_TOL_FRACTION = 1e-5

# Grid cells per wanted level in a sweep's scan (single solves and crossing
# probes scan at rootfind's 32).  A sweep's array calls are long, so its
# cost grows with the energies it asks for, and its count-free refinement
# costs less per energy than the counted scan.  Median sweep_levels ms on
# fig3 / fig4 / fig5 / fig6a / fig6b (41 runs each, densities interleaved,
# 2-vCPU x86-64 host):
#   2 cells: 3.35 / 3.78 / 5.30 / 10.04 / 13.62, sum 36.09
#   3 cells: 3.33 / 3.74 / 5.48 / 10.49 / 13.12, sum 36.17
#   4 cells: 3.35 / 3.83 / 5.01 / 10.78 / 13.80, sum 36.77
#   8 cells: 3.33 / 3.78 / 5.40 / 13.00 / 16.42, sum 41.94
# 2 and 3 tie within the host's noise (61 more runs of each: 36.22 and
# 36.10); 3 takes fewer refinement rounds on fig6b (17 against 22).  fig6b
# scans 4 519 energies and refines 8 874 at 3 cells, against 10 001 and
# 7 991 at 8.
_ROWS_CELLS_PER_LEVEL = 3


@dataclass(frozen=True)
class SweepSpec:
    """The grid of the model's sweep parameter, and how many levels to track."""

    lambda_min: float
    lambda_max: float
    steps: int
    n_levels: int

    def __post_init__(self) -> None:
        if not (self.lambda_min < self.lambda_max):
            raise ValueError("need lambda_min < lambda_max")
        if self.steps < 2:
            raise ValueError("need steps >= 2")
        if self.n_levels < 2:
            raise ValueError("need n_levels >= 2")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.steps)


@dataclass(frozen=True)
class SpectrumTable:
    """Levels over the sweep grid: levels[i, n] is E_{n+1} at lambdas[i],
    a value of model.sweep_param, solved with the root-finding settings cfg."""

    lambdas: np.ndarray
    levels: np.ndarray
    model: ModelParams
    units: UnitsConfig
    cfg: RootfindConfig


@dataclass(frozen=True)
class AvoidedCrossing:
    """A refined local minimum of the gap between levels level_index and
    level_index + 1 (1-based)."""

    level_index: int
    lambda_star: float
    gap: float
    e_mid: float


def sweep_levels(
    model: ModelParams,
    units: UnitsConfig,
    spec: SweepSpec,
    cfg: RootfindConfig = RootfindConfig(),
) -> SpectrumTable:
    """Solve the first n_levels at every grid point of the model's sweep
    parameter, as the rows of one scan (at _ROWS_CELLS_PER_LEVEL cells per
    wanted level, on F and the count) and one lockstep refinement (on F
    alone, no count evaluated): each row bit for bit as that point in any
    other sweep, and within 2 max(tol_abs, 4 eps |E|) of solve_levels
    there, which refines on the scalar F.

    Every grid point's model is built (and so validated) before the first
    solve: a point outside the model's valid range raises ConfigError.
    A solver failure aborts the sweep with NonConvergenceError.  Both name
    the offending grid index (partial tables are never returned).  When
    several points fail, the one named fails in the earliest round (the
    scan's window search, its halving, then the refinement); within a
    round a non-finite F comes before a count failure, and of those the
    lowest index is named.
    """
    lambdas = spec.grid()
    name = model.sweep_param
    varied = []
    for i, lam in enumerate(lambdas.tolist()):
        try:
            varied.append(model.at(lam))
        except ValueError as exc:
            raise ConfigError(f"sweep grid index {i} ({name}={lam}): {exc}") from exc

    def counted(energies: np.ndarray, rows: np.ndarray):
        return model.char_values(energies, units, at=lambdas[rows])

    def values(energies: np.ndarray, rows: np.ndarray):
        return model.f_values(energies, units, at=lambdas[rows])

    n = spec.n_levels
    tops = np.array([_start_top(point, units, n, cfg) for point in varied])
    try:
        scans = scan_brackets(
            counted, cfg, n, np.zeros(tops.size), tops, cells_per_level=_ROWS_CELLS_PER_LEVEL
        )
        levels = refine_rows(values, scans, cfg)
    except NonConvergenceError as exc:
        i = exc.row
        raise NonConvergenceError(
            f"sweep failed at grid index {i} ({name}={float(lambdas[i])}): {varied[i]!r}: {exc}",
            row=i,
        ) from exc
    return SpectrumTable(lambdas, levels, model, units, cfg)


def gap_curves(table: SpectrumTable) -> np.ndarray:
    """Adjacent-level gaps g_n = E_{n+1} - E_n per grid row; all positive."""
    return np.diff(table.levels, axis=1)


def default_gap_ceiling(table: SpectrumTable) -> float:
    """20% of the median adjacent gap over the whole sweep."""
    return 0.2 * float(median(gap_curves(table).ravel().tolist()))


def _gaps_at(
    model: ModelParams,
    units: UnitsConfig,
    lams: np.ndarray,
    cols: np.ndarray,
    cfg: RootfindConfig,
    e_hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(gaps, mid-energies) between level columns cols[k] and cols[k]+1 at
    lambda = lams[k], one probe per k, all in one scan.

    The two levels are the ones with count indices N(e_min)+col+1 and
    N(e_min)+col+2, the labels of the table's columns.  Each probe scans
    [e_min, e_hi[k]], the top taken from the table above the pair, and
    raises the top only when the count says a level lies above it.  A
    failed probe raises NonConvergenceError naming its pair and model.
    """
    varied = [model.at(lam) for lam in lams.tolist()]

    def values(energies: np.ndarray, rows: np.ndarray):
        return model.char_values(energies, units, at=lams[rows])

    pairs = []
    try:
        scans = scan_brackets(values, cfg, 2, cols, e_hi)
        for v, x in zip(varied, scans):
            pairs.append(refine_levels(characteristic_fn(v, units), x, cfg))
    except NonConvergenceError as exc:
        # a refinement fails with no row: the probe after the pairs found
        k = len(pairs) if exc.row is None else exc.row
        raise NonConvergenceError(
            f"crossing probe of levels {cols[k] + 1} and {cols[k] + 2}: {varied[k]!r}: {exc}"
        ) from exc
    lo_root, hi_root = np.array(pairs).T
    return hi_root - lo_root, 0.5 * (lo_root + hi_root)


def _interior_minima(gaps: np.ndarray, ceiling: float) -> list[tuple[int, int]]:
    """(row, gap column) of interior local minima below the ceiling, column
    by column.  A plateau counts only at its left edge."""
    g = gaps[1:-1]
    hit = (g < gaps[:-2]) & (g <= gaps[2:]) & (g < ceiling)
    cols, rows = hit.T.nonzero()
    return list(zip((rows + 1).tolist(), cols.tolist()))


def detect_avoided_crossings(
    table: SpectrumTable, gap_ceiling: float | None = None
) -> list[AvoidedCrossing]:
    """Certified avoided crossings of a sweep, sorted by lambda_star.

    Each interior local minimum of a gap curve below gap_ceiling (default:
    20% of the sweep's median gap) is refined by Brent's minimiser on the
    squared gap over its flanking grid cells, down to 1e-5 of the sweep
    window; its lambda_star, gap and e_mid are those of the best point
    probed.  The count certifies every probe's two levels as levels
    level_index and level_index + 1, the labels of the table's columns:
    the probes scan and refine with table.cfg, the settings the table was
    solved with.  A minimum whose two flanking grid rows hold different
    numbers of levels below cfg.e_min is a relabelling of the table's
    columns, not a crossing, and is dropped.  Boundary minima are excluded
    (see edge_candidates).
    """
    model, units, cfg = table.model, table.units, table.cfg
    gaps = gap_curves(table)
    ceiling = gap_ceiling if gap_ceiling is not None else default_gap_ceiling(table)
    # linspace stores both window ends exactly
    lam_tol = float(table.lambdas[-1] - table.lambdas[0]) * _LAMBDA_TOL_FRACTION

    minima = _interior_minima(gaps, ceiling)
    if not minima:
        return []
    rows, cols = np.array(minima).T
    e_hi = np.array([_energy_top(table, row, col) for row, col in minima])
    # a level passing e_min relabels the columns above it: their gap curves
    # jump where the flanking rows count differently below e_min
    lams = table.lambdas[np.concatenate((rows - 1, rows + 1))]
    _, counts = model.char_values(np.full(lams.size, cfg.e_min), units, at=lams)
    same = counts[: rows.size] == counts[rows.size :]
    rows, cols, e_hi = rows[same], cols[same], e_hi[same]

    def probe(k: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _gaps_at(model, units, lams, cols[k], cfg, e_hi[k])

    searched = _brent_lockstep(probe, table.lambdas[rows - 1], table.lambdas[rows + 1], lam_tol)
    found = [
        AvoidedCrossing(level_index=col + 1, lambda_star=lam, gap=g, e_mid=mid)
        for col, (lam, g, mid) in zip(cols.tolist(), searched)
    ]
    return sorted(found, key=lambda ac: ac.lambda_star)


def _energy_top(table: SpectrumTable, row: int, col: int) -> float:
    """Top of a probe window for levels (col, col+1) at the coarse minimum:
    above the pair and, where the table holds one, below the next level,
    across the three flanking rows."""
    rows = table.levels[max(0, row - 1) : row + 2]
    hi_pair = float(np.max(rows[:, col + 1]))
    if col + 2 < table.levels.shape[1]:
        return 0.5 * (hi_pair + float(np.min(rows[:, col + 2])))
    return hi_pair + 0.75 * (hi_pair - float(np.min(rows[:, col]))) + 1e-6


# probe(k, lams): the (gaps, mid-energies) of crossings k at lambdas lams.
GapProbe = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]

# The share of the larger part of its interval that a golden-section step
# of Brent's search takes.
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0

# One crossing's search: it yields each lambda to probe and is sent the
# (gap, mid-energy) there; it returns (lambda*, gap, mid-energy).
Search = Generator[float, tuple[float, float], tuple[float, float, float]]


def _localmin(a: float, b: float, tol: float) -> Search:
    """Brent's localmin (Brent 1973, ch. 5) of gap^2 on [a, b], which near
    an avoided crossing is the parabola Delta^2 + kappa^2 (lambda - lambda*)^2.

    The search stops once its best point x lies within tol/2 of both ends
    of its interval, which is then no wider than tol; its smallest step is
    tol/4.  (Brent adds sqrt(eps) |x| to both, so that no step falls below
    the rounding of the minimised function; at detect's tol, 1e-5 of the
    sweep window, it would add under 0.2% on the presets, and is left out.)
    The result is x with its gap and mid-energy, as probed.
    """
    t1, t2 = 0.25 * tol, 0.5 * tol
    x = w = v = a + _GOLDEN * (b - a)
    gap, mid = yield x
    fx = fw = fv = gap * gap
    best = (x, gap, mid)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= t2 - 0.5 * (b - a):
            return best
        p = q = r = 0.0
        if abs(e) > t1:  # fit a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q  # its vertex; within t2 of an end, t1 toward the middle
            if x + d - a < t2 or b - (x + d) < t2:
                d = t1 if x < m else -t1
        else:  # a golden-section step into the larger part
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= t1 else (t1 if d > 0.0 else -t1))
        gap, mid = yield u
        fu = gap * gap
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
            best = (u, gap, mid)
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _brent_lockstep(
    probe: GapProbe, lo: np.ndarray, hi: np.ndarray, tol: float
) -> list[tuple[float, float, float]]:
    """(lambda*, gap, mid-energy) of Brent's search (_localmin) for the gap
    minimum of each crossing k on [lo[k], hi[k]], down to width tol.

    The searches run in lockstep: each round probes the next point of every
    crossing still open with one probe call.  Each crossing's points, and
    so its result, are those of its search alone.
    """
    searches = [_localmin(a, b, tol) for a, b in zip(lo.tolist(), hi.tolist())]
    lams = [next(search) for search in searches]
    k = np.arange(len(searches))
    found: list = [None] * len(searches)
    while k.size:
        gaps, mids = probe(k, np.array(lams))
        still, lams = [], []
        for i, gap, mid in zip(k.tolist(), gaps.tolist(), mids.tolist()):
            try:
                lams.append(searches[i].send((gap, mid)))
                still.append(i)
            except StopIteration as stop:
                found[i] = stop.value
        k = np.array(still, dtype=int)
    return found


def edge_candidates(
    table: SpectrumTable, gap_ceiling: float | None = None
) -> list[AvoidedCrossing]:
    """Unrefined gap minima sitting on the sweep boundary (the gap is
    still decreasing into the window edge); reported separately, never as
    certified crossings."""
    gaps = gap_curves(table)
    ceiling = gap_ceiling if gap_ceiling is not None else default_gap_ceiling(table)
    ends = gaps[[0, -1]]
    hit = (ends < gaps[[1, -2]]) & (ends < ceiling)
    cols, end = hit.T.nonzero()
    rows = np.array([0, -1])[end]
    e_mid = 0.5 * (table.levels[rows, cols] + table.levels[rows, cols + 1])
    out = [
        AvoidedCrossing(level_index=col + 1, lambda_star=lam, gap=gap, e_mid=mid)
        for col, lam, gap, mid in zip(
            cols.tolist(), table.lambdas[rows].tolist(), gaps[rows, cols].tolist(), e_mid.tolist()
        )
    ]
    return sorted(out, key=lambda ac: ac.lambda_star)


def effective_levels(table: SpectrumTable) -> np.ndarray:
    """Width-scaled levels E'_n = u (a + b)^2 E_n for the delta-between-walls
    sweep (lambda is b); preserves row ordering and gap-minimum locations."""
    if table.model.kind != "m1":
        raise ModelMismatchError(
            f"effective levels are defined for the m1 b-sweep, not {table.model.kind}"
        )
    factors = table.units.u * np.square(table.model.a + table.lambdas)
    return factors[:, None] * table.levels
