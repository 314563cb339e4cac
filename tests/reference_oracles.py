"""Independent reference computations shared by the test modules.

Everything here deliberately avoids the library's own root-finding and
level counts: plain bisection on one-variable closed-form conditions,
the parabolic-cylinder boundary values D_nu(0), D'_nu(0) from math.gamma
(the library works with signed log|Gamma| from math.lgamma instead), and
the Sturm count of the finite-difference oracle's matrix, which shares
no formula with the analytic level conditions.  The twisted Sturm kernel
is checked against the forward pivot recurrence, the RK4 shooting kernel
against the plain node-by-node loop it replaces, and the sweep's
gap-minimum searches against plain loops over each gap curve.
"""

import math
from typing import NamedTuple

import numpy as np

from dwcross import oracle
from dwcross._kernels import sturm_counts
from dwcross.sweep import AvoidedCrossing


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


def sturm_count(T, energy):
    """Number of eigenvalues of the oracle's matrix T strictly below energy."""
    return int(sturm_counts(T.diag, T.offdiag, np.array([energy]))[0])


_SAFMIN = 2.2250738585072014e-308
_FORWARD_BLOCK_ROWS = 512


def forward_sturm_counts(diag, offdiag, shifts):
    """Number of eigenvalues strictly below each shift, from the negative
    pivots of the shifted LDL^T factorization, rows 0 .. n-1 in turn,
    vectorized across shifts; pivots within pivmin of 0 are clamped to
    -pivmin.  Rows go in blocks; a block first runs the bare recurrence
    and is redone with the clamp only if it holds a pivot below pivmin."""
    d = np.ascontiguousarray(diag, dtype=np.float64)
    e = np.ascontiguousarray(offdiag, dtype=np.float64)
    sh = np.atleast_1d(np.ascontiguousarray(shifts, dtype=np.float64))
    emax = max(float(e.max()), -float(e.min())) if e.size else 0.0
    pivmin = _SAFMIN * max(1.0, emax * emax)
    counts = np.zeros(sh.shape, dtype=np.int64)
    q = None
    for start in range(0, d.shape[0], _FORWARD_BLOCK_ROWS):
        rows = d[start : start + _FORWARD_BLOCK_ROWS]
        # e[i-1]^2 couples row i to row i - 1 (row 0 has none)
        pairs = e[max(start - 1, 0) : start + rows.size - 1]
        couplings = ([0.0] if start == 0 else []) + (pairs * pairs).tolist()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            block = _forward_pivots(np.subtract.outer(rows, sh), couplings, q, None)
        if (np.abs(block) < pivmin).any():
            block = _forward_pivots(np.subtract.outer(rows, sh), couplings, q, pivmin)
        q = block[-1]
        counts += np.count_nonzero(block < 0.0, axis=0)
    return counts


def _forward_pivots(block, couplings, q, pivmin):
    """Overwrite block, whose rows hold d[i] - sh, with the pivots
    q_i = (d[i] - sh) - e2[i] / q_{i-1}; q is the row of pivots before the
    block (None at row 0), and pivmin, if given, clamps |q| < pivmin to
    -pivmin."""
    ratio = np.empty_like(block[0])
    for row, coupling in zip(block, couplings):
        if q is not None:
            np.subtract(row, np.divide(coupling, q, out=ratio), out=row)
        if pivmin is not None:
            row[np.abs(row) < pivmin] = -pivmin
        q = row
    return block


def sturm_backing(model, units, levels, tol, e_top):
    """Oracle Sturm counts N(E - tol) and N(E + tol) at each level, on a
    finite-difference grid fine enough that its O(h^2) level error
    u S^2 h^2 / 12 stays below tol / 4 up to e_top (capped at 30000
    points), where S^2 = E^2 + E sqrt(v0 / u) also covers the decay
    constant inside a rectangular barrier."""
    v0 = model.v0 if model.kind in ("m2", "m4") else 0.0
    scale = math.sqrt(e_top * e_top + e_top * math.sqrt(v0 / units.u))
    T = oracle.build_hamiltonian(model, units, oracle.OracleConfig(), e_top=3.0 * e_top)
    h_need = math.sqrt(3.0 * tol / units.u) / scale
    points = min(30000, max(T.size, math.ceil((T.size + 1) * T.h / h_need)))
    if points > T.size:
        T = oracle.build_hamiltonian(
            model, units, oracle.OracleConfig(n_points=points), e_top=3.0 * e_top
        )
    shifts = np.array([e + s for e in levels for s in (-tol, tol)])
    counts = sturm_counts(T.diag, T.offdiag, shifts).tolist()
    return list(zip(counts[0::2], counts[1::2]))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(gap_fn, lam_lo, lam_hi, tol):
    """Scalar golden-section search for the minimum of gap_fn(lam)[0] on
    [lam_lo, lam_hi], down to width tol: (lam*, gap, mid) at the midpoint
    of the last interval, where gap_fn returns (gap, mid)."""
    a, b = lam_lo, lam_hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, _ = gap_fn(c)
    fd, _ = gap_fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc, _ = gap_fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd, _ = gap_fn(d)
    lam_star = 0.5 * (a + b)
    gap, mid = gap_fn(lam_star)
    return lam_star, gap, mid


def brent_min(gap_fn, lam_lo, lam_hi, tol):
    """Scalar Brent localmin (Brent 1973, ch. 5) of gap_fn(lam)[0] ** 2 on
    [lam_lo, lam_hi], with the absolute tolerance tol / 4 only: it stops
    once the best point lies within tol / 2 of both interval ends.  Returns
    (lam*, gap, mid) at the best point probed, where gap_fn returns
    (gap, mid)."""
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lam_lo, lam_hi
    tol1, tol2 = tol / 4.0, tol / 2.0
    v = a + golden * (b - a)
    w = x = v
    gap, mid = gap_fn(x)
    fv = fw = fx = gap * gap
    result = (x, gap, mid)
    d = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            return result
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp = e
            e = d
            parabolic = abs(p) < abs(0.5 * q * etemp) and p > q * (a - x) and p < q * (b - x)
        if parabolic:
            d = p / q
            u = x + d
            if u - a < tol2 or b - u < tol2:
                d = math.copysign(tol1, xm - x) if x != xm else -tol1
        else:
            e = a - x if x >= xm else b - x
            d = golden * e
        if abs(d) >= tol1:
            u = x + d
        else:
            u = x + math.copysign(tol1, d) if d != 0.0 else x - tol1
        gap, mid = gap_fn(u)
        fu = gap * gap
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
            result = (u, gap, mid)
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def interior_minima(gaps, ceiling):
    """(row, gap column) of interior local minima below the ceiling, one
    column at a time; a plateau counts only at its left edge."""
    hits = []
    n_rows, n_cols = gaps.shape
    for col in range(n_cols):
        g = gaps[:, col]
        for i in range(1, n_rows - 1):
            if g[i] <= g[i - 1] and g[i] <= g[i + 1] and g[i] < ceiling:
                if g[i] == g[i - 1]:  # plateau: count only its left edge
                    continue
                hits.append((i, col))
    return hits


def edge_candidates(table, ceiling):
    """Gap minima on the first or last row of the table, the gap still
    falling into the window edge, sorted by lambda."""
    gaps = np.diff(table.levels, axis=1)
    out = []
    for col in range(gaps.shape[1]):
        g = gaps[:, col]
        for row in (0, gaps.shape[0] - 1):
            inner = 1 if row == 0 else gaps.shape[0] - 2
            if g[row] < g[inner] and g[row] < ceiling:
                e_mid = 0.5 * (table.levels[row, col] + table.levels[row, col + 1])
                out.append(
                    AvoidedCrossing(
                        level_index=col + 1,
                        lambda_star=float(table.lambdas[row]),
                        gap=float(g[row]),
                        e_mid=float(e_mid),
                    )
                )
    return sorted(out, key=lambda ac: ac.lambda_star)


def sequential_rk4(v_half, h, u, energy, y_start, dy_start):
    """integrate_schrodinger's contract, one RK4 step per loop iteration:
    the running solution is divided by its magnitude max(|psi|, |dpsi|)
    whenever that passes 1e100, and each node stores the running pair."""
    vh = np.asarray(v_half, dtype=np.float64).tolist()
    n_nodes = (len(vh) - 1) // 2 + 1
    psi = np.empty(n_nodes)
    dpsi = np.empty(n_nodes)
    ue = u * energy
    y1, y2 = y_start, dy_start
    psi[0] = y1
    dpsi[0] = y2
    for node in range(1, n_nodes):
        base = 2 * (node - 1)
        g0 = u * vh[base] - ue
        gm = u * vh[base + 1] - ue
        g1 = u * vh[base + 2] - ue
        y1, y2 = rk4_step(y1, y2, h, g0, gm, g1)
        mag = max(abs(y1), abs(y2))
        if mag > 1e100:
            y1 /= mag
            y2 /= mag
        psi[node] = y1
        dpsi[node] = y2
    return psi, dpsi


def rk4_step(y1, y2, s, g0, gm, g1):
    """One classical RK4 step of (psi, psi')' = (psi', g psi) with step s,
    where g is g0, gm and g1 at the start, middle and end of the step."""
    half = 0.5 * s
    k1_1 = y2
    k1_2 = g0 * y1
    k2_1 = y2 + half * k1_2
    k2_2 = gm * (y1 + half * k1_1)
    k3_1 = y2 + half * k2_2
    k3_2 = gm * (y1 + half * k2_1)
    k4_1 = y2 + s * k3_2
    k4_2 = g1 * (y1 + s * k3_1)
    sixth = s / 6.0
    return (
        y1 + sixth * (k1_1 + 2.0 * (k2_1 + k3_1) + k4_1),
        y2 + sixth * (k1_2 + 2.0 * (k2_2 + k3_2) + k4_2),
    )
