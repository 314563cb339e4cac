"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own root-finding and
discretization paths: plain bisection on one-variable closed-form
conditions only, and the parabolic-cylinder boundary values D_nu(0),
D'_nu(0) from math.gamma, which shares nothing with the library's
Lanczos series.  The one exception is scan_brackets, the bracket scan
as it was before it evaluated whole grids at once: one scalar call of f
per node, both subdivision triggers as loops.  It is kept verbatim as
the reference the array scan must reproduce node for node.
"""

import math
from statistics import median
from typing import Callable, NamedTuple

import numpy as np

from dwcross.errors import NonConvergenceError
from dwcross.rootfind import _MAX_SUBDIVISION_DEPTH, Bracket, RootfindConfig


def bisect(f, lo, hi, tol=1e-12):
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0, "reference bisection needs a sign change"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


class PcfBoundaryValues(NamedTuple):
    """Value and slope of the parabolic cylinder function D_nu at the origin."""

    d0: float
    d0_prime: float


def _recip_gamma(x: float) -> float:
    """1/Gamma(x) from math.gamma: 0.0 at the poles 0, -1, -2, ... and
    wherever math.gamma overflows (within about 1e-308 of a pole, or
    x > 171.6), where |1/Gamma| is below about 1e-290."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return 0.0


def pcf_at_zero(nu: float) -> PcfBoundaryValues:
    """Boundary values D_nu(0) and D'_nu(0) of the parabolic cylinder function.

        D_nu(0)  =  2^(nu/2)   sqrt(pi) / Gamma(1/2 - nu/2)
        D'_nu(0) = -2^((nu+1)/2) sqrt(pi) / Gamma(-nu/2)

    D_nu(0) is exactly 0 at odd non-negative integer nu and D'_nu(0)
    exactly 0 at even non-negative integer nu; they are never both zero.
    """
    root_pi = math.sqrt(math.pi)
    d0 = 2.0 ** (0.5 * nu) * root_pi * _recip_gamma(0.5 - 0.5 * nu)
    d0p = -(2.0 ** (0.5 * (nu + 1.0))) * root_pi * _recip_gamma(-0.5 * nu)
    return PcfBoundaryValues(d0, d0p)


def symmetric_delta_box_levels(v0, a, u, count, tol=1e-12):
    """Spectrum of the delta-in-box at a = b: union of the even-sector
    roots of k cot(ka) = -u v0 / 2 and the odd levels k a = n pi."""
    roots = []

    def h(k):
        # sin(ka) * (k cot(ka) + u v0 / 2): pole-free in each interval
        return k * math.cos(k * a) + 0.5 * u * v0 * math.sin(k * a)

    for n in range(count + 2):
        lo = n * math.pi / a + 1e-9
        hi = (n + 1) * math.pi / a - 1e-9
        if h(lo) * h(hi) < 0:
            roots.append(bisect(h, lo, hi, tol) ** 2 / u)
    for n in range(1, count + 2):
        roots.append((n * math.pi / a) ** 2 / u)
    return sorted(roots)[:count]


def symmetric_delta_box_even_roots(v0, a, u, count, tol=1e-12):
    """Only the k cot(ka) = -u v0/2 sector, ascending."""
    roots = []

    def h(k):
        return k * math.cos(k * a) + 0.5 * u * v0 * math.sin(k * a)

    n = 0
    while len(roots) < count:
        lo = n * math.pi / a + 1e-9
        hi = (n + 1) * math.pi / a - 1e-9
        if h(lo) * h(hi) < 0:
            roots.append(bisect(h, lo, hi, tol) ** 2 / u)
        n += 1
    return roots


def isolated_well_level(v0, width, u, tol=1e-13):
    """Ground level of one well in isolation: a hard wall, then a flat
    floor of the given width, then a semi-infinite step of height v0.

    Matching sin(k x) in the well to exp(-kappa x) under the step gives
    k cos(k L) + kappa sin(k L) = 0, with k = sqrt(u E), kappa =
    sqrt(u (v0 - E)) and L = width; the ground root has k L in
    (pi/2, pi).  Needs sqrt(u v0) L > pi/2, else no level lies below v0.
    """

    def f(e):
        k = math.sqrt(u * e)
        kappa = math.sqrt(u * (v0 - e))
        return k * math.cos(k * width) + kappa * math.sin(k * width)

    lo = (0.5 * math.pi / width) ** 2 / u
    hi = min((math.pi / width) ** 2 / u, v0)
    return bisect(f, lo, hi, tol)


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


def scan_brackets(f: Callable[[float], float], cfg: RootfindConfig) -> list[Bracket]:
    """Disjoint, sorted sign-change brackets of f on [e_min, e_max].

    Two triggers mark a cell as possibly hiding a sub-grid root pair (the
    throat of an avoided crossing), and such cells are subdivided down to
    coarse_cell / 2^_MAX_SUBDIVISION_DEPTH: a node where |f| has a local
    minimum below 1e-3 times the running median of |f| with no adjacent
    sign change, and, scale-free, a quadratic through either node triple
    flanking a sign-preserving cell predicting a real root inside it.
    """
    if cfg.e_max is None:
        raise ValueError("scan_brackets needs cfg.e_max")
    xs = list(np.linspace(cfg.e_min, cfg.e_max, cfg.coarse_steps + 1))
    coarse_cell = (cfg.e_max - cfg.e_min) / cfg.coarse_steps
    min_cell = coarse_cell / 2**_MAX_SUBDIVISION_DEPTH
    fs = []
    for i, x in enumerate(xs):
        fx = f(x)
        if fx == 0.0:
            xs[i], fx = _nudged_value(f, x, coarse_cell)
        fs.append(fx)

    def run_subdivision() -> None:
        for _ in range(_MAX_SUBDIVISION_DEPTH + 1):
            abs_fs = [abs(v) for v in fs]
            threshold = 1e-3 * median(abs_fs)
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

    run_subdivision()
    return [
        Bracket(xs[i], xs[i + 1], fs[i], fs[i + 1])
        for i in range(len(xs) - 1)
        if _sign_change(fs[i], fs[i + 1])
    ]
