"""Hot numerical kernels of the oracle, in numpy.

sturm_counts counts the eigenvalues of a symmetric tridiagonal matrix
below a batch of shifts: the pivot recurrence of the shifted LDL^T
factorization steps row by row, each row one array operation across all
shifts.  integrate_schrodinger is RK4 shooting across one smooth span with
a signed step.  The equation is linear, so each step is a 2x2 matrix; the
span's matrices are built by array operations and chained as a blocked
prefix product, one array operation per step within a block across all
blocks and one scalar loop over the blocks, not one Python iteration per
node.
"""

from __future__ import annotations

import math

import numpy as np

_SAFMIN = 2.2250738585072014e-308
_LOG_RENORM_LIMIT = math.log(1e100)
_BLOCK_STEPS = 64  # RK4 steps per block of the prefix product
_RESCALE_EVERY = 8  # steps between rescalings of a block's running product
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
    if pivmin is None:
        # the bare loop runs once per row of the grid: locals, positional
        # out arguments and the first row peeled keep its body to two calls
        divide, subtract = np.divide, np.subtract
        rows = iter(block)
        if q is None:
            q = next(rows)  # row 0 has no coupling
            couplings = couplings[1:]
        for row, coupling in zip(rows, couplings):
            subtract(row, divide(coupling, q, ratio), row)
            q = row
        return block
    for row, coupling in zip(block, couplings):
        if q is not None:
            np.subtract(row, np.divide(coupling, q, out=ratio), out=row)
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
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of psi'' = u (V - E) psi across one smooth span.

    Starts from (y_start, dy_start) at the first sample and steps by the
    signed h: a negative h integrates leftward over a reversed v_half.
    v_half holds the potential on the half-step grid (2*(n-1)+1 values for
    n nodes) in integration order; it must be smooth over the span (callers
    split at potential steps and delta spikes and chain the returned
    endpoint state).  The stored solution is renormalized as a sequential
    integration renormalizes its running solution: divided by its
    magnitude max(|psi|, |dpsi|) at each node where that has passed 1e100
    since the last such node.  Each stored (psi, dpsi) node pair shares one
    scale, so same-node bilinear products of two solutions stay
    scale-consistent.

    The equation is linear, so each RK4 step is a 2x2 matrix, and all of
    them are built at once (_step_matrices).  The steps are cut into blocks
    of _BLOCK_STEPS; the running products within the blocks advance one
    step at a time across all blocks together, rescaled every
    _RESCALE_EVERY steps with the scale kept as a log, and one scalar loop
    carries the state from block to block.

    Returns (psi, dpsi) over the n nodes in integration order.
    """
    # each temporary is deleted once spent: at its peak the kernel holds
    # about 8 arrays of the span's length
    g = np.asarray(v_half, dtype=np.float64)
    steps = (g.shape[0] - 1) // 2
    width = min(_BLOCK_STEPS, max(steps, 1))
    blocks = -(-steps // width)
    # u (V - E) on the half-step grid; the padding past the last node only
    # feeds products that are never read
    padded = np.zeros(2 * blocks * width + 1)
    np.subtract(u * g[: 2 * steps + 1], u * energy, out=padded[: 2 * steps + 1])
    # step j of block i sits at [j, i]: one row holds a step of every block
    g0, gm, g1 = (
        np.ascontiguousarray(padded[k : k + 2 * blocks * width : 2].reshape(blocks, width).T)
        for k in (0, 1, 2)
    )
    del padded
    # mats[:, :, j, i] is step j of block i, then the product of steps 0..j
    mats = np.empty((2, 2, width, blocks))
    _step_matrices(h, g0, gm, g1, mats)
    del g0, gm, g1
    logs = _block_products(mats)

    # the state at each block's first node, of magnitude 1 past the first
    # block, and its log scale
    s1, s2, s_log = [], [], []
    y1, y2, y_log = float(y_start), float(dy_start), 0.0
    ends = zip(*(part.tolist() for part in (*mats[:, :, -1].reshape(4, blocks), logs[-1])))
    for ta, tb, tc, td, t_log in ends:
        s1.append(y1)
        s2.append(y2)
        s_log.append(y_log)
        y1, y2 = ta * y1 + tb * y2, tc * y1 + td * y2
        mag = max(abs(y1), abs(y2))
        if mag > 0.0:
            y1, y2 = y1 / mag, y2 / mag
            y_log += t_log + math.log(mag)

    # every node: its block's product applied to the block's first state,
    # written through views that lay the nodes out as mats does
    psi = np.empty(blocks * width + 1)
    dpsi = np.empty(blocks * width + 1)
    psi[0], dpsi[0] = y_start, dy_start
    for out, (first, second) in ((psi, mats[0]), (dpsi, mats[1])):
        first *= s1
        second *= s2
        np.add(first, second, out=out[1:].reshape(blocks, width).T)
    del mats, first, second
    logs += s_log
    node_log = logs.T.reshape(-1)[:steps]
    del logs
    psi, dpsi = psi[: steps + 1], dpsi[: steps + 1]

    # the sequential schedule: the first node past 1e100 times the divisor
    # (1 at the start) becomes the divisor
    true_log = np.maximum(np.abs(psi[1:]), np.abs(dpsi[1:]))
    with np.errstate(divide="ignore"):
        np.log(true_log, out=true_log)
    true_log += node_log
    peak = np.maximum.accumulate(true_log)
    level = 0.0
    while True:
        node = int(np.searchsorted(peak, level + _LOG_RENORM_LIMIT, side="right"))
        if node >= steps:
            break
        node_log[node:] -= float(true_log[node]) - level
        level = float(true_log[node])
    del true_log, peak
    np.exp(node_log, out=node_log)
    psi[1:] *= node_log
    dpsi[1:] *= node_log
    return psi, dpsi


def _block_products(mats: np.ndarray) -> np.ndarray:
    """Overwrite mats[:, :, j], the matrices of every block's step j, with
    the product of the block's steps 0..j divided by exp(logs[j]); the
    divisor is each block's largest entry, taken every _RESCALE_EVERY
    steps.  Returns logs."""
    _, _, width, blocks = mats.shape
    logs = np.zeros((width, blocks))
    product = np.empty((2, 2, blocks))
    for j in range(1, width):
        np.einsum("ikb,klb->ilb", mats[:, :, j], mats[:, :, j - 1], out=product)
        if j % _RESCALE_EVERY == 0:
            mag = np.abs(product).max(axis=(0, 1))
            product /= mag
            np.log(mag, out=logs[j])
        mats[:, :, j] = product
    return np.cumsum(logs, axis=0, out=logs)


def _step_matrices(
    s: float, g0: np.ndarray, gm: np.ndarray, g1: np.ndarray, out: np.ndarray
) -> None:
    """Write into out[0, 0], out[0, 1], out[1, 0] and out[1, 1] the entries
    [[a, b], [c, d]] of the RK4 step (psi, psi') -> M (psi, psi') of
    psi'' = g psi with step s, where g0, gm and g1 are g at the step's
    start, middle and end.  The classical stages applied to (1, 0) give
    (a, c) and applied to (0, 1) give (b, d); with q = s^2/6,

        a = 1 + q (g0 + 2 gm) + 1.5 q^2 g0 gm,   b = s (1 + q gm),
        c = s/6 (g0 + 4 gm + g1) + s q/2 gm (g0 + g1),
        d = 1 + q (2 gm + g1) + 1.5 q^2 gm g1.
    """
    (a, b), (c, d) = out
    q = s * s / 6.0
    term = g0 * gm
    term *= 1.5 * q * q
    np.add(gm, gm, out=c)
    np.add(g0, c, out=a)
    a *= q
    a += 1.0
    a += term
    np.multiply(gm, g1, out=term)
    term *= 1.5 * q * q
    np.add(g1, c, out=d)
    d *= q
    d += 1.0
    d += term
    np.multiply(gm, q, out=b)
    b += 1.0
    b *= s
    c += c
    c += g0
    c += g1
    c *= s / 6.0
    np.add(g0, g1, out=term)
    term *= gm
    term *= 0.5 * s * q
    c += term
