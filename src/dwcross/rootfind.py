"""Bracket and refine all zeros of a scalar characteristic function.

The scan walks an adaptively refined energy grid: cells around small
local minima of |f| are subdivided so that near-degenerate root pairs
(the throats of avoided crossings) are separated into distinct brackets
even when they fall inside one coarse cell.  Refinement is a guarded
bisection with inverse-quadratic acceleration that never leaves its
bracket.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
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
        if self.e_max is not None and not (self.e_min < self.e_max):
            raise ValueError(f"need e_min < e_max, got [{self.e_min}, {self.e_max}]")
        if self.coarse_steps < 64:
            raise ValueError(f"coarse_steps must be >= 64, got {self.coarse_steps}")
        if not self.tol_abs > 0.0:
            raise ValueError("tol_abs must be positive")


def _nudged_value(f: Callable[[float], float], x: float, cell: float) -> tuple[float, float]:
    """Move a node that evaluates to exactly 0.0 off the root."""
    for delta in (1e-9 * cell, -1e-9 * cell, 1e-6 * cell, -1e-6 * cell):
        fx = f(x + delta)
        if fx != 0.0:
            return x + delta, fx
    raise NonConvergenceError(f"characteristic function is identically zero near E={x}")


def _sign_change(fa: float, fb: float) -> bool:
    return (fa < 0.0 < fb) or (fb < 0.0 < fa)


def _parabola_predicts_root(
    x0: float, x1: float, x2: float,
    f0: float, f1: float, f2: float,
    lo: float, hi: float,
) -> bool:
    """True when the quadratic through three nodes has a real root inside
    [lo, hi]: the signature of a sub-grid root pair hiding in a cell whose
    dip is not deep enough for the absolute-threshold trigger (scale
    free)."""
    scale = max(abs(f0), abs(f1), abs(f2))
    if scale == 0.0 or not math.isfinite(scale):
        return False
    f0, f1, f2 = f0 / scale, f1 / scale, f2 / scale
    d01 = (f1 - f0) / (x1 - x0)
    d12 = (f2 - f1) / (x2 - x1)
    curv = (d12 - d01) / (x2 - x0)
    slope = d01 + curv * (x1 - x0)  # p'(x1)
    disc = slope * slope - 4.0 * curv * f1
    if disc < 0.0:
        return False
    root = math.sqrt(disc)
    if curv == 0.0:
        if slope == 0.0:
            return False
        candidates = [-f1 / slope]
    else:
        candidates = [(-slope - root) / (2.0 * curv), (-slope + root) / (2.0 * curv)]
    return any(lo <= x1 + xi <= hi for xi in candidates)


def scan_brackets(
    f: Callable[[float], float],
    cfg: RootfindConfig,
    expected_count: int | None = None,
) -> list[Bracket]:
    """Disjoint, sorted sign-change brackets of f on [e_min, e_max].

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
    xs = list(np.linspace(cfg.e_min, cfg.e_max, cfg.coarse_steps + 1))
    coarse_cell = (cfg.e_max - cfg.e_min) / cfg.coarse_steps
    min_cell = coarse_cell / 2**cfg.max_subdivision_depth
    fs = []
    for x in xs:
        fx = f(x)
        if fx == 0.0:
            x, fx = _nudged_value(f, x, coarse_cell)
        fs.append(fx)

    def run_subdivision(threshold_factor: float) -> None:
        for _ in range(cfg.max_subdivision_depth + 1):
            abs_fs = [abs(v) for v in fs]
            threshold = threshold_factor * median(abs_fs)
            n = len(xs)
            split_cells: set[int] = set()
            # Deep-dip rule: cells flanking a sub-threshold local minimum
            # of |f| that has no adjacent sign change.
            for i in range(1, n - 1):
                if abs_fs[i] >= threshold:
                    continue
                if abs_fs[i] > abs_fs[i - 1] or abs_fs[i] > abs_fs[i + 1]:
                    continue
                if _sign_change(fs[i - 1], fs[i]) or _sign_change(fs[i], fs[i + 1]):
                    continue
                split_cells.update((i - 1, i))
            # Scale-free rule: a quadratic through either flanking node
            # triple predicts a root inside a sign-preserving cell.
            for i in range(n - 1):
                if i in split_cells or _sign_change(fs[i], fs[i + 1]):
                    continue
                lo, hi = xs[i], xs[i + 1]
                left_triple = i >= 1 and _parabola_predicts_root(
                    xs[i - 1], xs[i], xs[i + 1], fs[i - 1], fs[i], fs[i + 1], lo, hi
                )
                if left_triple or (
                    i + 2 < n
                    and _parabola_predicts_root(
                        xs[i], xs[i + 1], xs[i + 2], fs[i], fs[i + 1], fs[i + 2], lo, hi
                    )
                ):
                    split_cells.add(i)
            inserts = [
                (i + 1, 0.5 * (xs[i] + xs[i + 1]))
                for i in sorted(split_cells)
                if xs[i + 1] - xs[i] > min_cell
            ]
            if not inserts:
                return
            for pos, x in sorted(inserts, reverse=True):
                fx = f(x)
                if fx == 0.0:
                    x, fx = _nudged_value(f, x, min_cell)
                xs.insert(pos, x)
                fs.insert(pos, fx)

    run_subdivision(1e-3)
    brackets = [
        Bracket(xs[i], xs[i + 1], fs[i], fs[i + 1])
        for i in range(len(xs) - 1)
        if _sign_change(fs[i], fs[i + 1])
    ]
    if expected_count is not None and len(brackets) < expected_count:
        factor = 1e-2
        while len(brackets) < expected_count and factor <= 1e3:
            run_subdivision(factor)
            brackets = [
                Bracket(xs[i], xs[i + 1], fs[i], fs[i + 1])
                for i in range(len(xs) - 1)
                if _sign_change(fs[i], fs[i + 1])
            ]
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
    expansion past 1e4 eV raises NonConvergenceError.
    """
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    base = cfg if cfg is not None else RootfindConfig()
    f = characteristic_fn(model, units)
    e_max = base.e_max if base.e_max is not None else model.level_window(units, n_levels)
    steps = base.coarse_steps
    while True:
        local = dataclasses.replace(
            base, e_max=e_max, coarse_steps=min(int(steps), _COARSE_STEPS_CAP)
        )
        brackets = scan_brackets(f, local)
        if len(brackets) >= n_levels:
            return [refine_root(f, br, local) for br in brackets[:n_levels]]
        if e_max >= _E_MAX_CAP:
            raise NonConvergenceError(
                f"only {len(brackets)} roots below the {_E_MAX_CAP} eV window cap"
            )
        e_max = min(e_max * _EXPAND, _E_MAX_CAP)
        steps = steps * _EXPAND
