"""Find a model's levels by their count, then refine them.

A model's char_values returns, with F, the exact count N(E) of its levels
strictly below each energy (see dwcross.models).  scan_brackets sizes
its grid by the number of levels wanted, then halves, one array call per
round, every wanted level's cell whose count says it holds more levels
than F's sign shows.  A cell whose count rises by one across a sign
change of F brackets one level.  A cell that still holds levels when it
is too narrow to halve is an unresolved doublet, which double precision
cannot split: each of its levels is its midpoint.

Every trial grid starts at e_min, so its first node gives the count
origin N(e_min), and a window grows only at its top.  A scan holds
independent rows (a single solve's one, the points of a sweep, or the
probes of its crossing search), each with its own window top and count
origin.  Their grids share each round's array call (in blocks of at most
_EVAL_BLOCK energies), which costs mostly a fixed amount whatever its
length, but no row reads another's values: each comes out as it would if
scanned alone.
solve_rows solves many models of one family so, all in one scan.

Refinement never leaves its bracket.  Its one rule, regula falsi with
Anderson and Bjorck's end scaling and a bisection where a bracket stalls,
comes in two forms that give the same root bit for bit on the same F.
refine_rows refines every bracket of many rows in lockstep, one array
call per round over the brackets still open.  solve_rows uses it, so a
sweep's 800 to 1200 brackets share each call's fixed cost.  refine_root
refines one bracket on the scalar form of F (models.characteristic_fn).
solve_levels and the probes of the sweep's crossing search use it: they
hold one to a dozen brackets, and a numpy call on so few costs more than
the math-module arithmetic of a scalar step.

Each caller chooses its scan's grid density: 32 cells per wanted level
for a single solve or a probe, 8 for solve_rows (see _CELLS_PER_LEVEL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import NonConvergenceError
from .models import ModelParams, UnitsConfig, characteristic_fn

__all__ = [
    "Bracket",
    "RootfindConfig",
    "scan_brackets",
    "refine_root",
    "refine_levels",
    "refine_rows",
    "solve_levels",
    "solve_rows",
]

# Hard ceiling for automatic window expansion.
_E_MAX_CAP = 1e4

# Window growth factor when the window holds fewer than the wanted levels.
_EXPAND = 1.6

# Grid cells per wanted level in each trial window, chosen by the caller.
# A single solve (and a crossing probe) scans at 32: there an array call's
# fixed cost dominates, so a denser grid costs little and saves halving
# rounds.  solve_rows scans at 8: its calls are long, so its cost grows
# with the energies it asks for (fig6b's sweep scans 10 001 energies at 8
# cells against 38 641 at 32, and refines 9 377 against 7 913).
_CELLS_PER_LEVEL = 32
_ROWS_CELLS_PER_LEVEL = 8

# A counted array form of f over many rows: (energies, the row of each)
# to (F, N) there.
RowsFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


class Bracket(NamedTuple):
    """One level on [lo, hi]: f_lo and f_hi differ in sign, or one is 0."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


@dataclass(frozen=True)
class RootfindConfig:
    """Count origin, starting window top and refinement tolerance.

    e_max may be left None: solve_levels and solve_rows then start on the
    model's level_window.
    """

    e_min: float = 1e-9
    e_max: float | None = None
    tol_abs: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("e_min", "e_max", "tol_abs"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.e_min > 0.0:
            raise ValueError(f"e_min must be positive, got {self.e_min}")
        if self.e_max is not None and not (self.e_min < self.e_max):
            raise ValueError(f"need e_min < e_max, got [{self.e_min}, {self.e_max}]")
        if not self.tol_abs > 0.0:
            raise ValueError("tol_abs must be positive")


# Energies per array evaluation of f: bounds the temporaries of wide grids.
_EVAL_BLOCK = 2048


def _evaluate(
    f: RowsFn, xs: np.ndarray, rows: np.ndarray, stage: str, place: Callable[[int], str]
) -> tuple[np.ndarray, np.ndarray]:
    """F and N on xs, rows[i] being the row of xs[i], in blocks of at most
    _EVAL_BLOCK energies.

    Raises:
        NonConvergenceError: F is NaN or infinite somewhere; the first such
            energy of the lowest row is named, with the stage and place(i),
            i being its index in xs.
    """
    values, counts = np.empty(xs.size), np.empty(xs.size)
    for start in range(0, xs.size, _EVAL_BLOCK):
        block = slice(start, start + _EVAL_BLOCK)
        values[block], counts[block] = f(xs[block], rows[block])
        finite = np.isfinite(values[block])
        if not finite.all():
            bad = (~finite).nonzero()[0] + start
            i = int(bad[np.argmin(rows[bad])])
            raise NonConvergenceError(
                f"{stage}: F is not finite at E={float(xs[i])!r} {place(i)}", row=int(rows[i])
            )
    return values, counts


# Rows of scan_brackets' halving state, one column per node: the node's
# energy, F there, its count less its row's lowest wanted count (so that
# its row's wanted levels are the counts 0 < R <= n), its row, and whether
# the cell the node starts may be halved (0.0), is stopped (1.0), or is
# none, the node being its row's last (2.0).
_X, _F, _R, _ROW, _STOP = range(5)


def scan_brackets(
    f: RowsFn,
    cfg: RootfindConfig,
    n: int,
    first: np.ndarray,
    tops: np.ndarray,
    *,
    cells_per_level: int = _CELLS_PER_LEVEL,
) -> list[list[Bracket | float]]:
    """Levels first[r]+1 ... first[r]+n of each row r counted from
    cfg.e_min, ascending, one list per row: each a Bracket or a doublet's
    midpoint.

    first and tops hold one entry per row: the count of its levels to skip
    and the top of its first window (tops is not written to).  f maps
    (energies, rows) to (F, N) there, rows[i] being the row of energies[i].
    The rows share one array call per round (in blocks of at most
    _EVAL_BLOCK energies); every row keeps its own window top, count
    origin and growth, and comes out as it would alone.

    Each row's trial window, from [e_min, tops[r]] on, is one pass over
    cells_per_level * n cells, whose first node gives the count origin
    N(e_min).  While its top counts fewer than the wanted levels, the top
    grows 1.6-fold, up to 1e4 eV.  Then each round halves, in one pass,
    every cell holding a wanted level whose count rises by 2 or more, or
    by 1 with no sign change of F, down to max(tol_abs, 4 eps |E|).  A
    midpoint whose count falls outside its cell's end counts is not
    trusted, and that cell stops.

    Raises:
        NonConvergenceError: F is not finite (stage "scan"); the count
            falls from one node to the next, or holds wanted levels F does
            not separate in a cell wider than tol_abs and 1e-6 max(1, |E|)
            eV (stage "count"); the window reaches 1e4 eV and still misses
            a wanted level (stage "window growth").  The message names the
            failed row's window and its row attribute the row.  Of many
            failing rows, the first met is named: the rounds go in turn
            (window search, halving, then the count check), and within one
            round the lowest row fails first.
    """
    hi = np.array(tops, dtype=float)  # the window tops, grown in place

    def window(row: int) -> str:
        return f"in the window [{float(e_min)}, {float(hi[row])}] eV"

    e_min = cfg.e_min
    nodes = cells_per_level * n + 1  # of a trial grid
    steps = np.arange(float(nodes))
    state = np.empty((5, hi.size * nodes))
    grids = state.reshape(5, hi.size, nodes)  # a view: one trial grid per row
    want = np.empty(hi.size)
    todo = np.arange(hi.size)  # rows whose window is still searched
    while True:
        top = hi[todo]
        # np.linspace's arithmetic, row by row
        x = steps * ((top - e_min) / (nodes - 1.0))[:, None] + e_min
        x[:, -1] = top
        rows = todo.repeat(nodes)
        values, counts = _evaluate(f, x.ravel(), rows, "scan", lambda i: window(rows[i]))
        nx = counts.reshape(x.shape)
        want[todo] = nx[:, 0] + first[todo]
        grids[_X, todo], grids[_F, todo] = x, values.reshape(x.shape)
        grids[_R, todo] = nx - want[todo, None]
        grow = nx[:, -1] < want[todo] + n
        if grow.any():
            # a falling count makes the end counts meaningless: the check
            # after the halving reports it
            grow &= ~(nx[:, 1:] < nx[:, :-1]).any(axis=1)
        if not grow.any():
            break
        capped = (grow & (top >= _E_MAX_CAP)).nonzero()[0]
        if capped.size:
            i = int(capped[0])
            raise NonConvergenceError(
                f"window growth: only {nx[i, -1] - nx[i, 0]:.0f} levels "
                f"{window(todo[i])}, which reaches the {_E_MAX_CAP} eV cap",
                row=int(todo[i]),
            )
        todo = todo[grow]
        hi[todo] = np.minimum(top[grow] * _EXPAND, _E_MAX_CAP)

    state[_ROW] = np.arange(hi.size).repeat(nodes)
    state[_STOP] = 0.0
    state[_STOP, nodes - 1 :: nodes] = 2.0
    while True:
        xs, fs, rs, row, stopped = state
        held = np.minimum(rs[1:], n) - np.maximum(rs[:-1], 0.0)
        rise = rs[1:] - rs[:-1]
        signs = np.sign(fs)
        changes = signs[:-1] * signs[1:] <= 0.0  # opposite signs, or a 0 at an end
        split = (held > 0.0) & (stopped[:-1] == 0.0) & ((rise >= 2.0) | ((rise == 1.0) & ~changes))
        cells = split.nonzero()[0]
        if cells.size:
            width = xs[cells + 1] - xs[cells]
            cells = cells[width > np.maximum(cfg.tol_abs, 4.0 * 2.22e-16 * np.abs(xs[cells + 1]))]
        if not cells.size:
            break
        mids = state[:, cells]  # each midpoint's row is its cell's
        mids[_X] = 0.5 * (xs[cells] + xs[cells + 1])
        rows = mids[_ROW].astype(int)
        mids[_F], counts = _evaluate(f, mids[_X], rows, "scan", lambda i: window(rows[i]))
        mids[_R] = counts - want[rows]
        trusted = (rs[cells] <= mids[_R]) & (mids[_R] <= rs[cells + 1])
        stopped[cells[~trusted]] = 1.0
        mids[_STOP] = 0.0
        state = np.insert(state, cells[trusted] + 1, mids[:, trusted], axis=1)

    bracket = (rise == 1.0) & changes
    odd = ((rise < 0.0) | ((held > 0.0) & ~bracket)) & (stopped[:-1] != 2.0)
    if odd.any():
        cells = odd.nonzero()[0]
        width = xs[cells + 1] - xs[cells]
        narrow = width <= np.maximum(cfg.tol_abs, 1e-6 * np.maximum(1.0, np.abs(xs[cells + 1])))
        bad = cells[(rise[cells] < 0.0) | ~narrow]
        if bad.size:
            i = int(bad[0])
            r = int(row[i])
            n_lo, n_hi = rs[i : i + 2] + want[r]
            raise NonConvergenceError(
                f"count: N = {n_lo:.0f} at E={float(xs[i])!r} and {n_hi:.0f} at "
                f"E={float(xs[i + 1])!r} is not one level per sign change of F {window(r)}",
                row=r,
            )
    # a cell across two rows holds no wanted level: the first row's top
    # count reaches its wanted levels
    cells = (held > 0.0).nonzero()[0]
    levels: list[list[Bracket | float]] = [[] for _ in range(hi.size)]
    for r, whole, x0, x1, f0, f1, m in zip(
        *(v.tolist() for v in (
            row[cells].astype(int), bracket[cells], xs[cells], xs[cells + 1], fs[cells],
            fs[cells + 1], held[cells],
        ))
    ):
        if whole:
            levels[r].append(Bracket(x0, x1, f0, f1))
        else:
            levels[r] += [0.5 * (x0 + x1)] * int(m)
    return levels


# Steps a bracket may take without halving its width before it bisects.
_STALL_STEPS = 4


def refine_root(f: Callable[[float], float], bracket: Bracket, cfg: RootfindConfig) -> float:
    """Root inside the bracket, to width max(tol_abs, 4 eps |E|): refine_rows'
    rule on one bracket and the scalar f, with the same arithmetic in the
    same order, so that on the same F both give the same root bit for bit
    after as many steps.

    Raises:
        NonConvergenceError: as refine_rows, F is not finite at a step or
            the bracket exceeds its 300 steps (stage "refine").
    """
    a, b, fa, fb = bracket
    if not (a < b) or (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
        raise ValueError(f"invalid bracket {bracket}")
    # as refine_rows' state: the secant's values, whether the last step
    # replaced a (None before the first), the width at the last halving and
    # the steps since
    tol_abs = cfg.tol_abs
    wa, wb, kept, ref, stalls = fa, fb, None, b - a, 0
    for _ in range(300):
        best = a if abs(fa) < abs(fb) else b
        tol = 4.0 * 2.22e-16 * abs(best)
        tol = tol if tol > tol_abs else tol_abs
        if fa == 0.0 or fb == 0.0 or b - a <= tol:
            return best
        x = 0.5 * (a + b) if stalls >= _STALL_STEPS else a + (b - a) * (wa / (wa - wb))
        lo, hi = a + 0.5 * tol, b - 0.5 * tol
        x = lo if x < lo else x  # as refine_rows' np.maximum, then np.minimum
        x = hi if x > hi else x
        fx = f(x)
        if not math.isfinite(fx):
            raise NonConvergenceError(
                f"refine: F is not finite at E={x!r} in the bracket {list(bracket[:2])} eV"
            )
        left = fx > 0.0 if fa > 0.0 else fx < 0.0
        scale = 1.0
        if left == kept:
            m = 1.0 - fx / (fa if left else fb)
            scale = m if m > 0.0 else 0.5
        kept = left
        if left:
            a, fa, wa, wb = x, fx, fx, wb * scale
        else:
            b, fb, wb, wa = x, fx, fx, wa * scale
        if b - a <= 0.5 * ref:
            ref, stalls = b - a, 0
        else:
            stalls += 1
    raise NonConvergenceError(
        f"refine: the root on {list(bracket[:2])} exceeded its iteration budget"
    )


def refine_levels(
    f: Callable[[float], float], levels: list[Bracket | float], cfg: RootfindConfig
) -> list[float]:
    """A scan's levels as energies: each Bracket refined on f."""
    return [refine_root(f, x, cfg) if isinstance(x, Bracket) else x for x in levels]


def refine_rows(
    f: RowsFn, levels: list[list[Bracket | float]], cfg: RootfindConfig
) -> list[list[float]]:
    """Many rows' scan results as energies, as refine_levels gives one
    row's: each Bracket of row r refined on f(energies, rows), rows[i]
    being the row of energies[i] (the f the rows were scanned with).

    A bracket stops, as refine_root does, at an exact zero or at width
    tol = max(tol_abs, 4 eps |E|), with the end of smaller |F|.  Every
    other bracket of every row takes one step per round, and each round
    makes one array call over them (in blocks of at most _EVAL_BLOCK
    energies).  A step is regula falsi with Anderson and Bjorck's end
    scaling (BIT 13, 1973): the secant value at an end kept twice running
    is scaled by m = 1 - F(x)/F(replaced end), or halved where m <= 0.  It
    is held at least tol/2 inside its bracket, so a root within tol/2 of
    an end closes the bracket; and a bracket that 4 steps have not halved
    bisects.  The first step uses the scan's f_lo and f_hi.  Each
    bracket's steps depend on its own values only, so each row comes out
    as it would if refined alone, and as refine_root gives it.

    Raises:
        NonConvergenceError: F is not finite at a step, or a bracket exceeds
            the budget of 300 steps (stage "refine").  The message names
            the bracket and the row attribute its row: of many, the lowest
            row failing in the earliest round.
    """
    out: list[list[float]] = [list(row) for row in levels]
    slots = [
        (r, j) for r, row in enumerate(levels) for j, x in enumerate(row) if isinstance(x, Bracket)
    ]
    if not slots:
        return out
    brackets = np.array([levels[r][j] for r, j in slots], dtype=float).T
    lo, hi, f_lo, f_hi = brackets
    if not ((lo < hi) & (f_lo * np.sign(f_hi) <= 0.0)).all():
        raise ValueError("invalid bracket among the rows")
    # one column per open bracket: its ends and F there, the values its
    # secant uses (F, the one at an end kept twice running scaled), the end
    # its last step kept (-1 lo, 1 hi, 0 none), its width when it last
    # halved, the steps since then, its row, and its index in slots
    zeros = np.zeros(len(slots))
    state = np.vstack(
        (brackets, f_lo, f_hi, zeros, hi - lo, zeros, [r for r, _ in slots], np.arange(len(slots)))
    )
    roots = np.empty(len(slots))

    def named(k: float) -> str:
        return f"[{float(lo[int(k)])!r}, {float(hi[int(k)])!r}]"

    for _ in range(300):
        a, b, fa, fb = state[:4]
        best = np.where(np.abs(fa) < np.abs(fb), a, b)
        tol = np.maximum(cfg.tol_abs, 4.0 * 2.22e-16 * np.abs(best))
        done = (fa == 0.0) | (fb == 0.0) | (b - a <= tol)
        roots[state[-1, done].astype(int)] = best[done]
        if done.all():
            break
        a, b, fa, fb, wa, wb, kept, ref, stalls, row, slot = state[:, ~done]
        inset = 0.5 * tol[~done]
        x = np.where(stalls >= _STALL_STEPS, 0.5 * (a + b), a + (b - a) * (wa / (wa - wb)))
        x = np.minimum(np.maximum(x, a + inset), b - inset)
        fx, _ = _evaluate(
            f, x, row.astype(int), "refine", lambda i: f"in the bracket {named(slot[i])} eV"
        )
        # x replaces the end whose F has its sign; an exact 0 replaces b
        left = fx * np.sign(fa) > 0.0
        keep = np.where(left, 1.0, -1.0)
        m = 1.0 - fx / np.where(left, fa, fb)
        scale = np.where(keep == kept, np.where(m > 0.0, m, 0.5), 1.0)
        a, fa, wa = np.where(left, x, a), np.where(left, fx, fa), np.where(left, fx, wa * scale)
        b, fb, wb = np.where(left, b, x), np.where(left, fb, fx), np.where(left, wb * scale, fx)
        halved = b - a <= 0.5 * ref
        ref = np.where(halved, b - a, ref)
        stalls = np.where(halved, 0.0, stalls + 1.0)
        state = np.array((a, b, fa, fb, wa, wb, keep, ref, stalls, row, slot))
    else:
        raise NonConvergenceError(
            f"refine: the root on {named(slot[0])} exceeded its iteration budget", row=int(row[0])
        )
    for (r, j), root in zip(slots, roots.tolist()):
        out[r][j] = root
    return out


def _start_top(model: ModelParams, units: UnitsConfig, n_levels: int, cfg: RootfindConfig) -> float:
    """Top of the first scan window: cfg.e_max, else the model's
    level_window, shifted up to start at an e_min past it.

    Raises:
        NonConvergenceError: no window is left below the 1e4 eV cap.
    """
    e_max = cfg.e_max if cfg.e_max is not None else model.level_window(units, n_levels)
    if e_max <= cfg.e_min:
        e_max = min(cfg.e_min + e_max, _E_MAX_CAP)
    if e_max <= cfg.e_min:
        raise NonConvergenceError(
            f"window growth: e_min={cfg.e_min} leaves no window below the {_E_MAX_CAP} eV cap"
        )
    return e_max


def solve_levels(
    model: ModelParams,
    units: UnitsConfig,
    n_levels: int,
    cfg: RootfindConfig = RootfindConfig(),
) -> list[float]:
    """First n_levels levels of the model above cfg.e_min, ascending.

    The scan starts on the model's level_window (or cfg.e_max) and grows
    it as scan_brackets does.  An e_min past the estimate shifts the
    estimated window up to start there.  Levels that double precision
    cannot split come back as equal values (see scan_brackets).

    Raises:
        NonConvergenceError: the scan, the count, the window growth or the
            refinement failed; the message starts with the model's repr
            and names the stage and the window or bracket.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")

    def values(energies: np.ndarray, rows: np.ndarray):
        return model.char_values(energies, units)

    try:
        top = _start_top(model, units, n_levels, cfg)
        [levels] = scan_brackets(values, cfg, n_levels, np.zeros(1), np.array([top]))
        return refine_levels(characteristic_fn(model, units), levels, cfg)
    except NonConvergenceError as exc:
        raise NonConvergenceError(f"{model!r}: {exc}") from exc


def solve_rows(
    f: RowsFn,
    models: list[ModelParams],
    units: UnitsConfig,
    n_levels: int,
    cfg: RootfindConfig = RootfindConfig(),
) -> list[list[float]]:
    """solve_levels on many models at once, one row each.  f maps
    (energies, rows) to (F, N) there, each energy's from its row's model
    (for a family of models, char_values with `at`).  One scan_brackets
    call scans every row, at 8 cells per wanted level (solve_levels scans
    at 32); then one refine_rows call refines the brackets of every row in
    lockstep.  Each row is scanned and refined as it would be alone: it
    comes out bit for bit as solve_rows on its model alone, and within
    2 max(tol_abs, 4 eps |E|) of solve_levels, which refines on the scalar
    F.

    Raises:
        NonConvergenceError: as solve_levels, for the first row to fail.
            The rounds go in turn: the window start (in row order), then
            the scan's window search, its halving and its count check, then
            the refinement; within one round the lowest row fails first.
            The row attribute is the row named.
    """
    tops = np.empty(len(models))
    row = 0
    try:
        for row, model in enumerate(models):
            tops[row] = _start_top(model, units, n_levels, cfg)
        levels = scan_brackets(
            f, cfg, n_levels, np.zeros(tops.size), tops, cells_per_level=_ROWS_CELLS_PER_LEVEL
        )
        return refine_rows(f, levels, cfg)
    except NonConvergenceError as exc:
        row = row if exc.row is None else exc.row
        raise NonConvergenceError(f"{models[row]!r}: {exc}", row=row) from exc
