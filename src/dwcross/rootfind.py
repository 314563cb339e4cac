"""Find a model's levels by their count, then refine them.

A model's char_values returns, with F, the exact count N(E) of its levels
strictly below each energy (see dwcross.models).  scan_brackets sizes
its grid by the number of levels wanted, then halves, one array call per
round, every wanted level's cell whose count says it holds more levels
than F's sign shows.  A cell whose count rises by one across a sign
change of F brackets one level.  A cell that still holds levels when it
is too narrow to halve is an unresolved doublet, which double precision
cannot split: each of its levels is its midpoint.

Refinement is a guarded bisection with inverse-quadratic acceleration
that never leaves its bracket.  It takes the scalar form of F (through
models.characteristic_fn): each step needs one new value, and a numpy
call on one element costs more than the math-module arithmetic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
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
    "solve_levels",
]

# Hard ceiling for automatic window expansion.
_E_MAX_CAP = 1e4

# Window growth factor when the window holds fewer than the wanted levels.
_EXPAND = 1.6

# Grid cells per wanted level in each trial window.  16 and 32 measured
# alike on the solve-mix and figures decks.
_CELLS_PER_LEVEL = 32

# A counted array form of f: 1-D energies to (F, N) there.
CountedFn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class Bracket(NamedTuple):
    """One level on [lo, hi]: f_lo and f_hi differ in sign, or one is 0."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


@dataclass(frozen=True)
class RootfindConfig:
    """Count origin, starting window top and refinement tolerance.

    e_max may be left None when the caller (solve_levels) chooses the
    starting window itself.
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


def _evaluate(f: CountedFn, xs: np.ndarray, window: str) -> tuple[np.ndarray, np.ndarray]:
    """F and N on xs, in blocks of at most _EVAL_BLOCK energies.

    Raises:
        NonConvergenceError: F is NaN or infinite somewhere.
    """
    fs = np.empty_like(xs)
    ns = np.empty_like(xs)
    for start in range(0, xs.size, _EVAL_BLOCK):
        block = xs[start : start + _EVAL_BLOCK]
        values, counts = f(block)
        finite = np.isfinite(values)
        if not finite.all():
            raise NonConvergenceError(
                f"scan: F is not finite at E={float(block[~finite][0])!r} {window}"
            )
        fs[start : start + block.size] = values
        ns[start : start + block.size] = counts
    return fs, ns


def scan_brackets(
    f: CountedFn, cfg: RootfindConfig, n: int, first: int = 0, e_lo: float = 0.0
) -> list[Bracket | float]:
    """Levels first+1 ... first+n of f counted from cfg.e_min, ascending:
    each a Bracket or a doublet's midpoint.

    f maps a 1-D array of energies to (F, N) there (for a model, its
    char_values).  Each trial window, from [max(e_lo, e_min), e_max] on,
    is one pass over _CELLS_PER_LEVEL * n cells, plus e_min when the
    window starts above it.  While its end counts miss a wanted level,
    its bottom drops to e_min or its top grows 1.6-fold, up to 1e4 eV.
    Then each round halves, in one pass, every cell holding a wanted level
    whose count rises by 2 or more, or by 1 with no sign change of F,
    down to max(tol_abs, 4 eps |E|).  A midpoint whose count falls outside
    its cell's end counts is not trusted, and that cell stops.

    Raises:
        NonConvergenceError: F is not finite (stage "scan"); the count
            falls from one node to the next, or holds wanted levels F does
            not separate in a cell wider than tol_abs and 1e-6 max(1, |E|)
            eV (stage "count"); the window reaches 1e4 eV and still misses
            a wanted level (stage "window growth").
    """
    if cfg.e_max is None:
        raise ValueError("scan_brackets needs cfg.e_max")
    lo, hi = max(e_lo, cfg.e_min), cfg.e_max
    while True:
        window = f"in the window [{lo}, {hi}] eV"
        xs = np.linspace(lo, hi, _CELLS_PER_LEVEL * n + 1)
        if lo > cfg.e_min:
            xs = np.concatenate(([cfg.e_min], xs))
        fs, ns = _evaluate(f, xs, window)
        want_lo = ns[0] + first
        want_hi = want_lo + n
        low = ns[int(lo > cfg.e_min)] > want_lo
        short = ns[-1] < want_hi
        # a falling count makes the end counts meaningless: the check
        # after the halving reports it
        if not (low or short) or (ns[1:] < ns[:-1]).any():
            break
        if low:
            lo = cfg.e_min
        if short:
            if hi >= _E_MAX_CAP:
                raise NonConvergenceError(
                    f"window growth: only {ns[-1] - ns[0]:.0f} levels {window}, "
                    f"which reaches the {_E_MAX_CAP} eV cap"
                )
            hi = min(hi * _EXPAND, _E_MAX_CAP)

    stopped = np.zeros(xs.size, dtype=bool)  # per cell, at its left node
    while True:
        held = np.minimum(ns[1:], want_hi) - np.maximum(ns[:-1], want_lo)
        rise = ns[1:] - ns[:-1]
        signs = np.sign(fs)
        changes = signs[:-1] * signs[1:] <= 0.0  # opposite signs, or a 0 at an end
        split = (held > 0.0) & ~stopped[:-1] & ((rise >= 2.0) | ((rise == 1.0) & ~changes))
        split &= xs[1:] - xs[:-1] > np.maximum(cfg.tol_abs, 4.0 * 2.22e-16 * np.abs(xs[1:]))
        cells = np.flatnonzero(split)
        if not cells.size:
            break
        mids = 0.5 * (xs[cells] + xs[cells + 1])
        fm, nm = _evaluate(f, mids, window)
        trusted = (ns[cells] <= nm) & (nm <= ns[cells + 1])
        stopped[cells[~trusted]] = True
        at = cells[trusted] + 1
        xs = np.insert(xs, at, mids[trusted])
        fs = np.insert(fs, at, fm[trusted])
        ns = np.insert(ns, at, nm[trusted])
        stopped = np.insert(stopped, at, False)

    bracket = (rise == 1.0) & changes
    narrow = xs[1:] - xs[:-1] <= np.maximum(cfg.tol_abs, 1e-6 * np.maximum(1.0, np.abs(xs[1:])))
    bad = np.flatnonzero((rise < 0.0) | ((held > 0.0) & ~bracket & ~narrow))
    if bad.size:
        i = int(bad[0])
        raise NonConvergenceError(
            f"count: N = {ns[i]:.0f} at E={float(xs[i])!r} and {ns[i + 1]:.0f} at "
            f"E={float(xs[i + 1])!r} is not one level per sign change of F {window}"
        )
    levels: list[Bracket | float] = []
    for c in np.flatnonzero(held > 0.0).tolist():
        if bracket[c]:
            levels.append(Bracket(*(float(v) for v in (xs[c], xs[c + 1], fs[c], fs[c + 1]))))
        else:
            levels += [float(0.5 * (xs[c] + xs[c + 1]))] * int(held[c])
    return levels


def refine_root(f: Callable[[float], float], bracket: Bracket, cfg: RootfindConfig) -> float:
    """Root inside the bracket, to width max(tol_abs, 4 eps |E|).

    Bisection with inverse-quadratic/secant acceleration; every iterate
    stays inside the original bracket, so convergence is guaranteed and
    deterministic.
    """
    a, b, fa, fb = bracket
    if not (a < b) or (fa > 0.0 and fb > 0.0) or (fa < 0.0 and fb < 0.0):
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
    raise NonConvergenceError(
        f"refine: the root on [{bracket.lo!r}, {bracket.hi!r}] exceeded its iteration budget"
    )


def refine_levels(
    f: Callable[[float], float], levels: list[Bracket | float], cfg: RootfindConfig
) -> list[float]:
    """A scan's levels as energies: each Bracket refined on f."""
    return [refine_root(f, x, cfg) if isinstance(x, Bracket) else x for x in levels]


def solve_levels(
    model: ModelParams,
    units: UnitsConfig,
    n_levels: int,
    cfg: RootfindConfig | None = None,
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
    base = cfg if cfg is not None else RootfindConfig()
    e_max = base.e_max if base.e_max is not None else model.level_window(units, n_levels)
    if e_max <= base.e_min:
        e_max = min(base.e_min + e_max, _E_MAX_CAP)
    try:
        if e_max <= base.e_min:
            raise NonConvergenceError(
                f"window growth: e_min={base.e_min} leaves no window below the {_E_MAX_CAP} eV cap"
            )
        local = dataclasses.replace(base, e_max=e_max)
        levels = scan_brackets(partial(model.char_values, units=units), local, n_levels)
        return refine_levels(characteristic_fn(model, units), levels, local)
    except NonConvergenceError as exc:
        raise NonConvergenceError(f"{model!r}: {exc}") from exc
