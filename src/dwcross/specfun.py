"""The real-line reciprocal gamma function, in sign-tracked log form.

The level conditions for the harmonic double wells need Gamma(x) for
arbitrary real x, including deep on the negative axis where Gamma
oscillates between poles.  They take it as 1/Gamma(x), an entire
function, in the form (sign, log|1/Gamma(x)|), so model code never
evaluates Gamma at or near a pole: the sign is exactly 0 at the poles.

One algorithm, the standard library's math.lgamma (log|Gamma(x)|, with
its own reflection on the negative axis), in two forms, as for the level
conditions themselves (see dwcross.models): recip_gamma_log on one
float, for root refinement, and recip_gamma_log_values on an array, for
the bracket scan.  Both apply the same pole rule and parity sign and call
math.lgamma on each point, so they agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "recip_gamma_log",
    "recip_gamma_log_values",
    "POLE_TOLERANCE",
]

# Distance to a non-positive integer below which Gamma is treated as at a pole.
POLE_TOLERANCE = 1e-12


def _log_abs_gamma(x: float) -> float:
    """math.lgamma(x), or +inf where log|Gamma(x)| itself overflows (x above
    about 2.6e305), so that 1/Gamma(x) is a dead term there."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def recip_gamma_log(x: float) -> tuple[int, float]:
    """(sign, log|1/Gamma(x)|) with sign 0 exactly at the poles.

    The log-space form a harmonic piece of the characteristic functions
    exponentiates under its own positive rescale, so their values stay
    representable even when individual gamma factors would overflow.  x within POLE_TOLERANCE
    of 0, -1, -2, ... is a pole (sign 0, log -inf).  Elsewhere the log is
    -math.lgamma(x), and the sign is -1 exactly where x < 0 and floor(x)
    is odd: Gamma is negative on (-1, 0), positive on (-2, -1), and so on.

    Raises:
        DomainError: x is not finite.
    """
    if not math.isfinite(x):
        raise DomainError(f"recip_gamma_log requires finite x, got {x!r}")
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) < POLE_TOLERANCE:
        return 0, -math.inf
    sign = -1 if x < 0.0 and math.floor(x) % 2 else 1
    return sign, -_log_abs_gamma(x)


def recip_gamma_log_values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """recip_gamma_log on a 1-D array: (signs, logs), the signs as floats
    -1.0, 0.0 and 1.0.  Elementwise the same pole rule (nearest integer
    rounded half to even), parity sign and math.lgamma call, so signs and
    logs equal the scalar ones exactly.

    Raises:
        DomainError: some x is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        bad = float(x[~np.isfinite(x)][0])
        raise DomainError(f"recip_gamma_log_values requires finite x, got {bad!r}")
    nearest = np.rint(x)
    live = ~((nearest <= 0.0) & (np.abs(x - nearest) < POLE_TOLERANCE))
    points = x[live].tolist()
    # math.lgamma itself, not the wrapper, on the common path: a Python
    # call per element costs about a third more on wide scans.
    try:
        log_gamma = np.fromiter(map(math.lgamma, points), float, len(points))
    except OverflowError:
        log_gamma = np.fromiter(map(_log_abs_gamma, points), float, len(points))
    logs = np.full_like(x, -math.inf)
    logs[live] = -log_gamma
    odd = (x < 0.0) & (np.floor(x) % 2.0 == 1.0)
    signs = np.where(live, np.where(odd, -1.0, 1.0), 0.0)
    return signs, logs
