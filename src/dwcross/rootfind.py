"""Find a model's levels by their count, then refine them.

A model's char_values returns, with F, the exact count N(E) of its levels
strictly below each energy (see dwcross.models).  scan_brackets sizes
its grid by the number of levels wanted, then halves, one array call per
round, every wanted level's cell whose count says it holds more levels
than F's sign shows.  A cell whose count rises by one across a sign
change of F brackets one level.  A cell that still holds levels when it
is too narrow to halve is an unresolved doublet, which double precision
cannot split: each of its levels is a zero-width bracket at its midpoint.

Every trial grid starts at e_min, so its first node gives the count
origin N(e_min), and a window grows only at its top.  A scan holds
independent rows (a single solve's one, the points of a sweep, or the
probes of its crossing search), each with its own window top and count
origin.  Their grids share each round's array call (in blocks of at most
_EVAL_BLOCK energies), which costs mostly a fixed amount whatever its
length, but no row reads another's values: each comes out as it would if
scanned alone.

Refinement never leaves its bracket.  Its one rule, regula falsi with
Anderson and Bjorck's end scaling and a bisection where a bracket stalls,
comes in two forms that give the same root bit for bit on the same F.
refine_rows refines every bracket of many rows in lockstep, one array
call per round over the brackets still open.  A sweep uses it, so its
800 to 1200 brackets share each call's fixed cost.  refine_root
refines one bracket on the scalar form of F (models.characteristic_fn).
solve_levels and the probes of the sweep's crossing search use it: they
hold one to a dozen brackets, and a numpy call on so few costs more than
the math-module arithmetic of a scalar step.

Each caller chooses its scan's grid density: 32 cells per wanted level
for a single solve or a probe (_CELLS_PER_LEVEL), 8 for a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, NoReturn

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
]

# Window growth factor when the window holds fewer than the wanted levels,
# and the most growths a scan row may take: 1.6^64 is about 1.2e13, so a
# first top of 1e-9 eV can still grow past 1e4 eV.
_EXPAND = 1.6
_MAX_GROWTHS = 64

# Grid cells per wanted level in each trial window of a single solve or a
# crossing probe: there an array call's fixed cost dominates, so a denser
# grid costs little and saves halving rounds.  A sweep scans sparser (see
# dwcross.sweep).
_CELLS_PER_LEVEL = 32

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
    """Count origin and refinement tolerance.

    Levels are counted from e_min, where every scan window starts; the
    first window ends on the model's level_window and grows as needed.
    """

    e_min: float = 1e-9
    tol_abs: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("e_min", "tol_abs"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.e_min > 0.0:
            raise ValueError(f"e_min must be positive, got {self.e_min}")
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


# Rows of scan_brackets' halving state, one column per cell that holds a
# wanted level, in row and energy order: the cell's ends, F there, their
# counts less the row's lowest wanted count (so that the row's wanted
# levels are the counts 0 < R <= n), and its row.
_LO, _UP, _F_LO, _F_UP, _R_LO, _R_UP, _ROW = range(7)


def _count_error(x: np.ndarray, counts: np.ndarray, row: int, where: str) -> NoReturn:
    """Raise the count failure of the cell [x[0], x[1]], whose ends count
    counts[0] and counts[1] levels."""
    raise NonConvergenceError(
        f"count: N = {counts[0]:.0f} at E={float(x[0])!r} and {counts[1]:.0f} at "
        f"E={float(x[1])!r} is not one level per sign change of F {where}",
        row=row,
    )


def scan_brackets(
    f: RowsFn,
    cfg: RootfindConfig,
    n: int,
    first: np.ndarray,
    tops: np.ndarray,
    *,
    cells_per_level: int = _CELLS_PER_LEVEL,
) -> np.ndarray:
    """Levels first[r]+1 ... first[r]+n of each row r counted from
    cfg.e_min, ascending: float64 of shape (rows, n, 4), each level a
    bracket (lo, hi, F(lo), F(hi)).  An unresolved doublet's m levels are
    m zero-width brackets (mid, mid, 0.0, 0.0) at its cell's midpoint.

    first and tops hold one entry per row: the count of its levels to skip
    and the top of its first window, above cfg.e_min (solve_levels and a
    sweep pass the model's level_window; tops is not written to).  f maps
    (energies, rows) to (F, N) there, rows[i] being the row of energies[i].
    The rows share one array call per round (in blocks of at most
    _EVAL_BLOCK energies); every row keeps its own window top, count
    origin and growth, and comes out as it would alone.

    Each row's trial window, from [e_min, tops[r]] on, is one pass over
    cells_per_level * n cells, whose first node gives the count origin
    N(e_min).  While its top counts fewer than the wanted levels, the top
    grows 1.6-fold, at most 64 times.  Then each round halves, in one pass,
    every cell holding a wanted level that is not yet a bracket (a count
    rise of 1 across a sign change of F), down to max(tol_abs, 4 eps |E|),
    and drops the halves that hold none.

    Raises:
        NonConvergenceError: F is not finite (stage "scan"); the count
            falls from one node of a trial grid to the next, or a midpoint
            counts outside its cell's end counts (stage "count"); the
            window still misses a wanted level after 64 growths (stage
            "window growth").  The message names the failed row's window
            and its row attribute the row.  Of many failing rows, the first
            met is named: the rounds go in turn; within a round, a
            non-finite F first, then a count failure; the lowest row first.
    """
    hi = np.array(tops, dtype=float)  # the window tops, grown in place

    def window(row: int) -> str:
        return f"in the window [{float(e_min)}, {float(hi[row])}] eV"

    e_min = cfg.e_min
    nodes = cells_per_level * n + 1  # of a trial grid
    steps = np.arange(float(nodes))
    grids = np.empty((3, hi.size, nodes))  # x, F and R on each row's trial grid
    want = np.empty(hi.size)
    todo = np.arange(hi.size)  # rows whose window is still searched
    for growths in range(_MAX_GROWTHS + 1):  # each row of todo has grown this often
        top = hi[todo]
        # np.linspace's arithmetic, row by row
        x = steps * ((top - e_min) / (nodes - 1.0))[:, None] + e_min
        x[:, -1] = top
        rows = todo.repeat(nodes)
        values, counts = _evaluate(f, x.ravel(), rows, "scan", lambda i: window(rows[i]))
        nx = counts.reshape(x.shape)
        fall = nx[:, 1:] < nx[:, :-1]
        if fall.any():
            i, c = np.unravel_index(fall.argmax(), fall.shape)
            _count_error(x[i, c : c + 2], nx[i, c : c + 2], int(todo[i]), window(todo[i]))
        want[todo] = nx[:, 0] + first[todo]
        grids[:, todo] = x, values.reshape(x.shape), nx - want[todo, None]
        grow = nx[:, -1] < want[todo] + n
        if not grow.any():
            break
        if growths == _MAX_GROWTHS:
            i = int(grow.argmax())
            raise NonConvergenceError(
                f"window growth: only {nx[i, -1] - nx[i, 0]:.0f} levels "
                f"{window(todo[i])} after {_MAX_GROWTHS} growths",
                row=int(todo[i]),
            )
        todo = todo[grow]
        hi[todo] = top[grow] * _EXPAND

    # the cells that hold wanted levels, both ends' x, F and R in one gather
    held = np.minimum(grids[2, :, 1:], n) - np.maximum(grids[2, :, :-1], 0.0)
    row, c = (held > 0.0).nonzero()
    held = held[row, c]
    cells = np.vstack((grids[:, row, c + [[0], [1]]].reshape(6, -1), row))
    while True:
        lo, up, f_lo, f_up, r_lo, r_up, row = cells
        # a count rise of 1 across opposite signs of F, or a 0 at an end
        bracket = (r_up - r_lo == 1.0) & (np.sign(f_lo) * np.sign(f_up) <= 0.0)
        split = ~bracket & (up - lo > np.maximum(cfg.tol_abs, 4.0 * 2.22e-16 * np.abs(up)))
        if not split.any():
            break
        k = split.nonzero()[0]
        rows = row[k].astype(int)
        mids = 0.5 * (lo[k] + up[k])
        f_mid, counts = _evaluate(f, mids, rows, "scan", lambda i: window(rows[i]))
        r_mid = counts - want[rows]
        trusted = (r_lo[k] <= r_mid) & (r_mid <= r_up[k])
        if not trusted.all():
            i = int(k[trusted.argmin()])
            r = int(row[i])
            ends = cells[_R_LO : _R_UP + 1, i] + want[r]
            _count_error(cells[_LO : _UP + 1, i], ends, r, window(r))
        # a split cell's two copies, at k plus the split cells before it
        # and the column after, become its lower and upper halves
        cells = cells.repeat(split + 1, axis=1)
        k += np.arange(k.size)
        cells[_UP:_ROW:2, k] = mids, f_mid, r_mid
        cells[_LO:_ROW:2, k + 1] = mids, f_mid, r_mid
        held = np.minimum(cells[_R_UP], n) - np.maximum(cells[_R_LO], 0.0)
        cells, held = cells[:, held > 0.0], held[held > 0.0]

    copies = held.astype(int)  # each row's cells hold its n levels, in order
    levels = cells[_LO : _F_UP + 1].T.repeat(copies, axis=0)
    if not bracket.all():  # the other cells are unresolved doublets: (mid, mid, 0, 0)
        doublet = ~bracket.repeat(copies)
        levels[doublet] = 0.5 * (levels[doublet, :1] + levels[doublet, 1:2]) * (1.0, 1.0, 0.0, 0.0)
    return levels.reshape(hi.size, n, 4)


# Steps a bracket may take without halving its width before it bisects.
_STALL_STEPS = 4


def refine_root(f: Callable[[float], float], bracket: Bracket, cfg: RootfindConfig) -> float:
    """Root inside the bracket, to width max(tol_abs, 4 eps |E|): refine_rows'
    rule on one bracket and the scalar f, with the same arithmetic in the
    same order, so that on the same F both give the same root bit for bit
    after as many steps.  A bracket with F 0 at an end, as a doublet's
    zero-width ones have, gives that end without a call of f.

    Raises:
        NonConvergenceError: as refine_rows, F is not finite at a step or
            the bracket exceeds its 300 steps (stage "refine").
    """
    a, b, fa, fb = bracket
    if not (a <= b) or (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
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
    f: Callable[[float], float], levels: np.ndarray, cfg: RootfindConfig
) -> list[float]:
    """One row of a scan's levels, shape (n, 4), as energies: each level
    refined by refine_root on the scalar f, from Python floats."""
    return [refine_root(f, x, cfg) for x in map(Bracket._make, levels.tolist())]


def refine_rows(f: RowsFn, brackets: np.ndarray, cfg: RootfindConfig) -> np.ndarray:
    """A scan's levels, shape (rows, n, 4), as energies of shape (rows, n),
    as refine_levels gives one row's: each bracket of row r refined on
    f(energies, rows), rows[i] being the row of energies[i] (the f the rows
    were scanned with).  A zero-width bracket is its own root.

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
    rows, n = brackets.shape[:2]
    ends = brackets.reshape(-1, 4).T
    lo, hi, f_lo, f_hi = ends
    if not ((lo <= hi) & (f_lo * np.sign(f_hi) <= 0.0)).all():
        raise ValueError("invalid bracket among the rows")
    # one column per open bracket: its ends and F there, the values its
    # secant uses (F, the one at an end kept twice running scaled), the end
    # its last step kept (-1 lo, 1 hi, 0 none), its width when it last
    # halved, the steps since then, its row, and its index in the flat rows
    zeros = np.zeros(lo.size)
    state = np.vstack(
        (ends, f_lo, f_hi, zeros, hi - lo, zeros, np.arange(rows).repeat(n), np.arange(lo.size))
    )
    roots = np.empty(lo.size)

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
    return roots.reshape(rows, n)


def _start_top(model: ModelParams, units: UnitsConfig, n_levels: int, cfg: RootfindConfig) -> float:
    """Top of the first scan window: the model's level_window, shifted up
    to start at an e_min past it."""
    top = model.level_window(units, n_levels)
    return top if top > cfg.e_min else cfg.e_min + top


def solve_levels(
    model: ModelParams,
    units: UnitsConfig,
    n_levels: int,
    cfg: RootfindConfig = RootfindConfig(),
) -> list[float]:
    """First n_levels levels of the model above cfg.e_min, ascending.

    The scan starts on the model's level_window and grows it as
    scan_brackets does.  An e_min past the estimate shifts the estimated
    window up to start there.  Levels that double precision
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

    top = _start_top(model, units, n_levels, cfg)
    try:
        [levels] = scan_brackets(values, cfg, n_levels, np.zeros(1), np.array([top]))
        return refine_levels(characteristic_fn(model, units), levels, cfg)
    except NonConvergenceError as exc:
        raise NonConvergenceError(f"{model!r}: {exc}") from exc

