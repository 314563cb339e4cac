"""The real-line reciprocal gamma function, in sign-tracked log form.

The level conditions for the harmonic double wells need Gamma(x) for
arbitrary real x, including deep on the negative axis where Gamma
oscillates between poles.  They take it as 1/Gamma(x), an entire
function, in the form (sign, log|1/Gamma(x)|), so model code never
evaluates Gamma at or near a pole: the sign is exactly 0 at the poles.

There are two forms, as for the level conditions themselves (see
dwcross.models): recip_gamma_log on one float, for root refinement, and
recip_gamma_log_values on an array, for the bracket scan.  Both apply
the same pole rule, Lanczos series and reflection.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PoleProximityError

__all__ = [
    "recip_gamma_log",
    "recip_gamma_log_values",
    "POLE_TOLERANCE",
]

# Distance to a non-positive integer below which Gamma is treated as at a pole.
POLE_TOLERANCE = 1e-12

# Lanczos approximation, g = 7, 9 coefficients.  Gives ~1e-14 relative
# accuracy in Gamma over the positive axis, which the reflection formula
# carries to negative arguments.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _sin_pi(x: float) -> float:
    """sin(pi*x) with argument reduction, accurate near integer x."""
    n = math.floor(x)
    r = x - n
    # sin(pi*(n+r)) = (-1)^n sin(pi*r); fold r about 1/2 for accuracy.
    s = math.sin(math.pi * (r if r <= 0.5 else 1.0 - r))
    return -s if n % 2 else s


def _lanczos_log_gamma(x: float) -> float:
    """log Gamma(x) for x >= 0.5 via the Lanczos series."""
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def recip_gamma_log(x: float) -> tuple[int, float]:
    """(sign, log|1/Gamma(x)|) with sign 0 exactly at the poles.

    The log-space form the characteristic functions combine before a
    single final exponentiation, so their values stay representable even
    when individual gamma factors would overflow.  x within POLE_TOLERANCE
    of 0, -1, -2, ... is a pole (sign 0, log -inf).  Otherwise the Lanczos
    series gives log Gamma(x) for x >= 0.5, and below it the reflection
    identity Gamma(x)Gamma(1-x) = pi/sin(pi*x), so the sign on the
    negative axis comes from the sign of sin(pi*x).

    Raises:
        PoleProximityError: x is not finite.
    """
    if not math.isfinite(x):
        raise PoleProximityError(f"recip_gamma_log requires finite x, got {x!r}")
    nearest = round(x)
    if nearest <= 0 and abs(x - nearest) < POLE_TOLERANCE:
        return 0, -math.inf
    if x >= 0.5:
        return 1, -_lanczos_log_gamma(x)
    s = _sin_pi(x)
    log_abs = _LOG_PI - math.log(abs(s)) - _lanczos_log_gamma(1.0 - x)
    return (1 if s > 0.0 else -1), -log_abs


def _lanczos_log_gamma_values(x: np.ndarray) -> np.ndarray:
    """_lanczos_log_gamma on an array, summing the series in the same order."""
    z = x - 1.0
    acc = np.full_like(z, _LANCZOS_COEFFS[0])
    for i in range(1, 9):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (z + 0.5) * np.log(t) - t + np.log(acc)


def recip_gamma_log_values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """recip_gamma_log on a 1-D array: (signs, logs), the signs as floats
    -1.0, 0.0 and 1.0.  Elementwise the same pole rule (sign 0 and log
    -inf within POLE_TOLERANCE of a non-positive integer, nearest integer
    rounded half to even), Lanczos series and reflection.  Signs equal the
    scalar ones; logs agree to a few ulp (numpy's log and sin may round
    differently from math's).

    Raises:
        PoleProximityError: some x is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        bad = float(x[~np.isfinite(x)][0])
        raise PoleProximityError(f"recip_gamma_log_values requires finite x, got {bad!r}")
    nearest = np.rint(x)
    pole = (nearest <= 0.0) & (np.abs(x - nearest) < POLE_TOLERANCE)
    reflect = x < 0.5
    log_gamma = _lanczos_log_gamma_values(np.where(reflect, 1.0 - x, x))
    # _sin_pi on the reflected points: fold r about 1/2, sign (-1)^floor(x).
    n = np.floor(x)
    r = x - n
    s = np.sin(math.pi * np.where(r <= 0.5, r, 1.0 - r))
    s = np.where(np.floor(0.5 * n) == 0.5 * n, s, -s)
    live = ~pole
    with np.errstate(divide="ignore"):
        log_abs = np.where(reflect, _LOG_PI - np.log(np.abs(s)) - log_gamma, log_gamma)
    signs = np.where(live, np.where(reflect & ~(s > 0.0), -1.0, 1.0), 0.0)
    logs = np.where(live, -log_abs, -math.inf)
    return signs, logs
