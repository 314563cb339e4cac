"""Bracket and refine all zeros of a characteristic function.

The scan walks an adaptively refined energy grid: cells around small
local minima of |f| are subdivided so that near-degenerate root pairs
(the throats of avoided crossings) are separated into distinct brackets
even when they fall inside one coarse cell.  It takes the array form of
f (a model's char_values) and evaluates each grid, and each round of
midpoints, in one pass; both subdivision triggers are array operations.

Refinement is a guarded bisection with inverse-quadratic acceleration
that never leaves its bracket.  It takes the scalar form of f (through
models.characteristic_fn): each step needs one new value, and a numpy
call on one element costs more than the math-module arithmetic of the
scalar form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Callable, NamedTuple

import numpy as np

from .errors import CountMismatchError, NonConvergenceError
from .models import ModelParams, UnitsConfig, characteristic_fn

__all__ = [
    "Bracket",
    "RootfindConfig",
    "scan_brackets",
    "refine_root",
    "solve_levels",
]

# Hard ceiling for automatic window expansion in solve_levels.
_E_MAX_CAP = 1e4

# Window growth factor when fewer than the requested roots are found.
_EXPAND = 1.6

_COARSE_STEPS_CAP = 16384

# An array form of f: 1-D energies to the values there.
ArrayFn = Callable[[np.ndarray], np.ndarray]


class Bracket(NamedTuple):
    """A sign change of f: f_lo * f_hi < 0 on [lo, hi]."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


@dataclass(frozen=True)
class RootfindConfig:
    """Scan window and refinement tolerances.

    e_max may be left None when the caller (solve_levels) chooses and
    expands the window itself.
    """

    e_min: float = 1e-9
    e_max: float | None = None
    coarse_steps: int = 512
    max_subdivision_depth: int = 12
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
        if self.coarse_steps < 64:
            raise ValueError(f"coarse_steps must be >= 64, got {self.coarse_steps}")
        if not self.tol_abs > 0.0:
            raise ValueError("tol_abs must be positive")


# Energies per array evaluation of f.  Holds the scan's temporaries to a
# fixed size: every intermediate of F on a 16385-node window would
# otherwise be allocated at full length at once.
_EVAL_BLOCK = 2048


def _evaluate(f: ArrayFn, xs: np.ndarray, cfg: RootfindConfig) -> np.ndarray:
    """f on xs, in blocks of at most _EVAL_BLOCK energies.

    Raises:
        NonConvergenceError: f is NaN or infinite somewhere; a NaN would
            otherwise never count as a sign change and hide a root.
    """
    out = np.empty_like(xs)
    for start in range(0, xs.size, _EVAL_BLOCK):
        block = xs[start : start + _EVAL_BLOCK]
        values = f(block)
        finite = np.isfinite(values)
        if not finite.all():
            raise NonConvergenceError(
                f"characteristic function is not finite at E={float(block[~finite][0])!r} "
                f"in the scan window [{cfg.e_min}, {cfg.e_max}]"
            )
        out[start : start + block.size] = values
    return out


def _nudged_value(
    f: ArrayFn, x: float, cell: float, cfg: RootfindConfig
) -> tuple[float, float]:
    """Move a node that evaluates to exactly 0.0 off the root."""
    for delta in (1e-9 * cell, -1e-9 * cell, 1e-6 * cell, -1e-6 * cell):
        fx = _evaluate(f, np.array([x + delta]), cfg)[0]
        if fx != 0.0:
            return x + delta, fx
    raise NonConvergenceError(f"characteristic function is identically zero near E={x}")


def _sign_change(fa: float, fb: float) -> bool:
    return (fa < 0.0 < fb) or (fb < 0.0 < fa)


def _sign_changes(fs: np.ndarray) -> np.ndarray:
    """Per cell of the node values fs: True where f changes sign (a zero
    value changes no sign)."""
    signs = np.sign(fs)
    return signs[:-1] * signs[1:] < 0.0


def _parabola_roots(xs: np.ndarray, fs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of the quadratic through each node triple
    (xs[t], xs[t+1], xs[t+2]); NaN where there is none.

    Values are normalised by the triple's largest |f| first, so the roots
    do not depend on the scale of f.  A triple whose quadratic degenerates
    to a line gives its one root twice.
    """
    x0, x1, x2 = xs[:-2], xs[1:-1], xs[2:]
    f0, f1, f2 = fs[:-2], fs[1:-1], fs[2:]
    scale = np.maximum(np.maximum(np.abs(f0), np.abs(f1)), np.abs(f2))
    with np.errstate(divide="ignore", invalid="ignore"):
        f0, f1, f2 = f0 / scale, f1 / scale, f2 / scale
        d01 = (f1 - f0) / (x1 - x0)
        d12 = (f2 - f1) / (x2 - x1)
        curv = (d12 - d01) / (x2 - x0)
        slope = d01 + curv * (x1 - x0)  # p'(x1)
        disc = slope * slope - 4.0 * curv * f1
        root = np.sqrt(disc)
        line = -f1 / slope
        lower = (-slope - root) / (2.0 * curv)
        upper = (-slope + root) / (2.0 * curv)
    flat = curv == 0.0
    lower = x1 + np.where(flat, line, lower)
    upper = x1 + np.where(flat, line, upper)
    # flat becomes the mask of triples without a root (in place, see
    # _cells_to_split): a constant line, a negative discriminant, or
    # all three values zero
    flat &= slope == 0.0
    flat |= disc < 0.0
    flat |= scale == 0.0
    lower[flat] = np.nan
    upper[flat] = np.nan
    return lower, upper


def _cells_to_split(xs: np.ndarray, fs: np.ndarray, threshold_factor: float) -> np.ndarray:
    """Cells that may hide a sub-grid root pair (see scan_brackets).

    The masks are built in place, with one temporary at a time.  numpy
    keeps up to seven freed buffers of each size below 1 kB for reuse;
    the boolean masks of a 513- to 1023-node grid are that small, and
    every round of subdivision has a new grid size, so each temporary
    mask left such a buffer allocated for good (about 0.4 MB over a
    solve-mix pass).
    """
    abs_fs = np.abs(fs)
    # statistics.median, not np.median or np.sort: numpy's sort maps
    # 256 kB more of its code into memory (x86-64, numpy 2.4), and
    # np.median also imports numpy.ma, about a megabyte
    threshold = threshold_factor * median(abs_fs.tolist())
    changes = _sign_changes(fs)
    split = np.zeros(changes.size, dtype=bool)
    # Scale-free rule: a quadratic through either flanking node triple
    # predicts a root inside a sign-preserving cell.  Triple t flanks
    # cells t and t + 1.
    lower, upper = _parabola_roots(xs, fs)
    for cells, lo, hi in ((split[:-1], xs[:-2], xs[1:-1]), (split[1:], xs[1:-1], xs[2:])):
        for root in (lower, upper):
            hit = lo <= root
            hit &= root <= hi
            cells |= hit
    split[changes] = False
    # Deep-dip rule: cells flanking a sub-threshold local minimum of |f|
    # that has no adjacent sign change.
    inner = abs_fs[1:-1]
    dip = inner < threshold
    dip &= inner <= abs_fs[:-2]
    dip &= inner <= abs_fs[2:]
    dip[changes[:-1]] = False
    dip[changes[1:]] = False
    split[:-1] |= dip
    split[1:] |= dip
    return split


def _merged(
    values: np.ndarray, added: np.ndarray, old: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """values at the positions flagged in old, added at the positions at.

    This is np.insert at sorted positions, without the argsort np.insert
    makes of its indices: that first sort maps 384 kB more of numpy's
    code into memory, against 64 kB for the masked stores (x86-64,
    numpy 2.4).
    """
    out = np.empty(old.size)
    out[old] = values
    out[at] = added
    return out


def _brackets(xs: np.ndarray, fs: np.ndarray) -> list[Bracket]:
    cells = np.flatnonzero(_sign_changes(fs))
    return [
        Bracket(*nodes)
        for nodes in zip(
            xs[cells].tolist(), xs[cells + 1].tolist(), fs[cells].tolist(), fs[cells + 1].tolist()
        )
    ]


def scan_brackets(
    f: ArrayFn,
    cfg: RootfindConfig,
    expected_count: int | None = None,
) -> list[Bracket]:
    """Disjoint, sorted sign-change brackets of f on [e_min, e_max].

    f maps a 1-D array of energies to the array of its values (for a
    model, its char_values).  The coarse grid is evaluated in one pass and
    each subdivision round's midpoints in another, in blocks of at most
    _EVAL_BLOCK energies; a non-finite value raises NonConvergenceError.

    Two triggers mark a cell as possibly hiding a sub-grid root pair (the
    throat of an avoided crossing), and such cells are subdivided down to
    coarse_cell / 2^max_subdivision_depth: a node where |f| has a local
    minimum below 1e-3 times the running median of |f| with no adjacent
    sign change, and, scale-free, a quadratic through either node triple
    flanking a sign-preserving cell predicting a real root inside it.
    When expected_count is given (an independent Sturm count) and too few
    brackets emerge, the dip threshold is loosened stepwise and
    subdivision repeated before a CountMismatchError is raised.
    """
    if cfg.e_max is None:
        raise ValueError("scan_brackets needs cfg.e_max")
    xs = np.linspace(cfg.e_min, cfg.e_max, cfg.coarse_steps + 1)
    coarse_cell = (cfg.e_max - cfg.e_min) / cfg.coarse_steps
    min_cell = coarse_cell / 2**cfg.max_subdivision_depth
    fs = _evaluate(f, xs, cfg)
    for i in np.flatnonzero(fs == 0.0):
        xs[i], fs[i] = _nudged_value(f, xs[i], coarse_cell, cfg)

    def subdivide(xs: np.ndarray, fs: np.ndarray, threshold_factor: float):
        for _ in range(cfg.max_subdivision_depth + 1):
            split = _cells_to_split(xs, fs, threshold_factor)
            split &= xs[1:] - xs[:-1] > min_cell
            cells = np.flatnonzero(split)
            if not cells.size:
                break
            mids = 0.5 * (xs[cells] + xs[cells + 1])
            fm = _evaluate(f, mids, cfg)
            for j in np.flatnonzero(fm == 0.0):
                mids[j], fm[j] = _nudged_value(f, mids[j], min_cell, cfg)
            # each midpoint goes right after its cell's left node
            at = cells + np.arange(1, cells.size + 1)
            old = np.ones(xs.size + cells.size, dtype=bool)
            old[at] = False
            xs, fs = _merged(xs, mids, old, at), _merged(fs, fm, old, at)
        return xs, fs

    xs, fs = subdivide(xs, fs, 1e-3)
    brackets = _brackets(xs, fs)
    if expected_count is not None and len(brackets) < expected_count:
        factor = 1e-2
        while len(brackets) < expected_count and factor <= 1e3:
            xs, fs = subdivide(xs, fs, factor)
            brackets = _brackets(xs, fs)
            factor *= 10.0
        if len(brackets) < expected_count:
            raise CountMismatchError(
                f"found {len(brackets)} bracket(s), expected {expected_count}; "
                "a near-degenerate pair is unresolved at this subdivision depth"
            )
    return brackets


def refine_root(f: Callable[[float], float], bracket: Bracket, cfg: RootfindConfig) -> float:
    """Root inside the bracket, to width max(tol_abs, 4 eps |E|).

    Bisection with inverse-quadratic/secant acceleration; every iterate
    stays inside the original bracket, so convergence is guaranteed and
    deterministic.
    """
    a, b, fa, fb = bracket
    if not (a < b) or not _sign_change(fa, fb):
        raise ValueError(f"invalid bracket {bracket}")
    # b tracks the best (smallest |f|) endpoint, c its counterpart.
    if abs(fa) < abs(fb):
        a, b, fa, fb = b, a, fb, fa
    c, fc = a, fa
    e = d = b - a
    for _ in range(300):
        if fb == 0.0:
            return b
        tol = 0.5 * max(cfg.tol_abs, 4.0 * 2.22e-16 * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s = e
            e = d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        if abs(d) > tol:
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
        if abs(fc) < abs(fb):
            a, b, fa, fb = b, c, fb, fc
            c, fc = a, fa
    raise NonConvergenceError("root refinement exceeded its iteration budget")


def solve_levels(
    model: ModelParams,
    units: UnitsConfig,
    n_levels: int,
    cfg: RootfindConfig | None = None,
) -> list[float]:
    """First n_levels zeros of the model's characteristic function, ascending.

    The scan window starts at a variant-specific estimate (or cfg.e_max)
    and grows geometrically, rescanning, until enough roots are bracketed;
    expansion past 1e4 eV raises NonConvergenceError.  Levels are those
    above cfg.e_min: an e_min past the estimate shifts the estimated
    window up to start there.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    base = cfg if cfg is not None else RootfindConfig()
    f = characteristic_fn(model, units)
    f_values = partial(model.char_values, units=units)
    e_max = base.e_max if base.e_max is not None else model.level_window(units, n_levels)
    if e_max <= base.e_min:
        e_max = min(base.e_min + e_max, _E_MAX_CAP)
        if e_max <= base.e_min:
            raise NonConvergenceError(
                f"e_min={base.e_min} leaves no window below the {_E_MAX_CAP} eV cap"
            )
    steps = base.coarse_steps
    while True:
        local = dataclasses.replace(
            base, e_max=e_max, coarse_steps=min(int(steps), _COARSE_STEPS_CAP)
        )
        brackets = scan_brackets(f_values, local)
        if len(brackets) >= n_levels:
            return [refine_root(f, br, local) for br in brackets[:n_levels]]
        if e_max >= _E_MAX_CAP:
            raise NonConvergenceError(
                f"only {len(brackets)} roots below the {_E_MAX_CAP} eV window cap"
            )
        e_max = min(e_max * _EXPAND, _E_MAX_CAP)
        steps = steps * _EXPAND
