"""Hot numerical kernels of the oracle, in numpy and plain Python.

sturm_counts counts eigenvalues of a symmetric tridiagonal matrix below
a batch of shifts; integrate_schrodinger is the RK4 shooting step loop.
"""

from __future__ import annotations

import numpy as np

_SAFMIN = 2.2250738585072014e-308
_RENORM_LIMIT = 1e100
_BLOCK_ROWS = 512  # rows of the pivot recurrence held in memory at once


def sturm_counts(diag: np.ndarray, offdiag: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Number of eigenvalues strictly below each shift, per shift.

    Counts negative pivots of the shifted LDL^T factorization, vectorized
    across shifts; pivots too close to zero are clamped to -pivmin, which
    keeps the count monotone and the recurrence finite.

    Rows go in blocks.  A block first runs the bare recurrence, two
    in-place ufunc calls per row; only a block holding a pivot below
    pivmin can differ under the clamp, and it is redone with the clamp.
    Every pivot is the clamped recurrence's.
    """
    d = np.ascontiguousarray(diag, dtype=np.float64)
    e = np.ascontiguousarray(offdiag, dtype=np.float64)
    sh = np.atleast_1d(np.ascontiguousarray(shifts, dtype=np.float64))
    n = d.shape[0]
    # max(e * e) without forming e * e: rounding keeps squares monotone in |e|
    emax = max(float(e.max()), -float(e.min())) if e.size else 0.0
    pivmin = _SAFMIN * max(1.0, emax * emax)

    counts = np.zeros(sh.shape, dtype=np.int64)
    q = None
    for start in range(0, n, _BLOCK_ROWS):
        rows = d[start : start + _BLOCK_ROWS]
        # e[i-1]^2 couples row i to row i - 1 (row 0 has none), as Python
        # floats, which divide an array faster than numpy scalars do; one
        # block at a time keeps the grid's couplings out of memory
        pairs = e[max(start - 1, 0) : start + rows.size - 1]
        couplings = ([0.0] if start == 0 else []) + (pairs * pairs).tolist()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            block = _pivots(np.subtract.outer(rows, sh), couplings, q, None)
        if (np.abs(block) < pivmin).any():
            block = _pivots(np.subtract.outer(rows, sh), couplings, q, pivmin)
        q = block[-1]
        counts += np.count_nonzero(block < 0.0, axis=0)
    return counts


def _pivots(
    block: np.ndarray, couplings: list[float], q: np.ndarray | None, pivmin: float | None
) -> np.ndarray:
    """Overwrite block, whose rows hold d[i] - sh, with the pivots
    q_i = (d[i] - sh) - e2[i] / q_{i-1}; couplings holds e2[i] of each row
    and q is the row of pivots before the block (None at row 0).  With
    pivmin given, pivots with |q| < pivmin are clamped to -pivmin."""
    ratio = np.empty_like(block[0])
    for row, coupling in zip(block, couplings):
        if q is not None:
            np.subtract(row, np.divide(coupling, q, out=ratio), out=row)
        if pivmin is not None:
            row[np.abs(row) < pivmin] = -pivmin
        q = row
    return block


def integrate_schrodinger(
    v_half: np.ndarray,
    h: float,
    u: float,
    energy: float,
    y_start: float,
    dy_start: float,
    from_left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of psi'' = u (V - E) psi across one smooth span.

    v_half holds the potential on the half-step grid (2*(n-1)+1 values for
    n nodes); it must be smooth over the span (callers split at potential
    steps and delta spikes and chain the returned endpoint state).  The
    running solution is renormalized when it grows past 1e100; each stored
    (psi, dpsi) node pair shares one scale, so same-node bilinear products
    of two solutions stay scale-consistent.

    Returns (psi, dpsi) over the n nodes in left-to-right order.
    """
    vh = np.ascontiguousarray(v_half, dtype=np.float64).tolist()
    n_nodes = (len(vh) - 1) // 2 + 1
    psi = np.empty(n_nodes, dtype=np.float64)
    dpsi = np.empty(n_nodes, dtype=np.float64)
    ue = u * energy
    y1, y2 = y_start, dy_start

    if from_left:
        s = h
        psi[0] = y1
        dpsi[0] = y2
        for node in range(1, n_nodes):
            base = 2 * (node - 1)
            g0 = u * vh[base] - ue
            gm = u * vh[base + 1] - ue
            g1 = u * vh[base + 2] - ue
            y1, y2 = _rk4_step(y1, y2, s, g0, gm, g1)
            psi[node] = y1
            dpsi[node] = y2
            mag = max(abs(y1), abs(y2))
            if mag > _RENORM_LIMIT:
                y1 /= mag
                y2 /= mag
                psi[node] = y1
                dpsi[node] = y2
    else:
        s = -h
        psi[n_nodes - 1] = y1
        dpsi[n_nodes - 1] = y2
        for node in range(n_nodes - 2, -1, -1):
            base = 2 * (node + 1)
            g0 = u * vh[base] - ue
            gm = u * vh[base - 1] - ue
            g1 = u * vh[base - 2] - ue
            y1, y2 = _rk4_step(y1, y2, s, g0, gm, g1)
            psi[node] = y1
            dpsi[node] = y2
            mag = max(abs(y1), abs(y2))
            if mag > _RENORM_LIMIT:
                y1 /= mag
                y2 /= mag
                psi[node] = y1
                dpsi[node] = y2
    return psi, dpsi


def _rk4_step(
    y1: float, y2: float, s: float, g0: float, gm: float, g1: float
) -> tuple[float, float]:
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
