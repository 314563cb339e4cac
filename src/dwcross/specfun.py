"""Real-line gamma machinery and parabolic-cylinder boundary values.

The level conditions for the harmonic double wells need Gamma(x) for
arbitrary real x, including deep on the negative axis where Gamma
oscillates between poles.  Everything here is built on a sign-tracked
log-gamma so that model code never evaluates Gamma at or near a pole:
the reciprocal 1/Gamma(x) is an entire function and is returned as an
exact 0.0 at the poles.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import PoleProximityError

__all__ = [
    "SignedLogGamma",
    "PcfBoundaryValues",
    "log_gamma_signed",
    "recip_gamma",
    "recip_gamma_log",
    "recip_gamma_log_values",
    "pcf_at_zero",
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
_SQRT_PI = math.sqrt(math.pi)


class SignedLogGamma(NamedTuple):
    """Natural log of |Gamma(x)| together with the sign of Gamma(x)."""

    log_abs: float
    sign: int


class PcfBoundaryValues(NamedTuple):
    """Value and slope of the parabolic cylinder function D_nu at the origin."""

    d0: float
    d0_prime: float
    nu: float


def _pole_distance(x: float) -> float:
    """Distance from x to the nearest non-positive integer (inf if x > 0.5)."""
    nearest = round(x)
    if nearest > 0:
        return math.inf
    return abs(x - nearest)


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


def log_gamma_signed(x: float) -> SignedLogGamma:
    """Sign-tracked log-gamma on the real line.

    Uses the Lanczos series for x >= 0.5 and the reflection identity
    Gamma(x)Gamma(1-x) = pi/sin(pi*x) below, so the sign on the negative
    axis comes from the sign of sin(pi*x).

    Raises:
        PoleProximityError: x is within POLE_TOLERANCE of 0, -1, -2, ...
    """
    if not math.isfinite(x):
        raise PoleProximityError(f"log_gamma_signed requires finite x, got {x!r}")
    if _pole_distance(x) < POLE_TOLERANCE:
        raise PoleProximityError(f"x={x!r} is within {POLE_TOLERANCE} of a gamma pole")
    if x >= 0.5:
        return SignedLogGamma(_lanczos_log_gamma(x), 1)
    s = _sin_pi(x)
    log_abs = _LOG_PI - math.log(abs(s)) - _lanczos_log_gamma(1.0 - x)
    return SignedLogGamma(log_abs, 1 if s > 0.0 else -1)


def recip_gamma(x: float) -> float:
    """1/Gamma(x): entire in x, exactly 0.0 at the poles of Gamma.

    Total function of finite x; may overflow to +-inf for x below about
    -180 where 1/Gamma grows factorially (not reached by the models,
    which work with this function through recip_gamma_log).
    """
    if _pole_distance(x) < POLE_TOLERANCE:
        return 0.0
    log_abs, sign = log_gamma_signed(x)
    try:
        return sign * math.exp(-log_abs)
    except OverflowError:
        return sign * math.inf


def recip_gamma_log(x: float) -> tuple[int, float]:
    """(sign, log|1/Gamma(x)|) with sign 0 exactly at the poles.

    The log-space form the characteristic functions combine before a
    single final exponentiation, so their values stay representable even
    when individual gamma factors would overflow.
    """
    if _pole_distance(x) < POLE_TOLERANCE:
        return 0, -math.inf
    log_abs, sign = log_gamma_signed(x)
    return sign, -log_abs


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


def pcf_at_zero(nu: float) -> PcfBoundaryValues:
    """Boundary values D_nu(0) and D'_nu(0) of the parabolic cylinder function.

        D_nu(0)  =  2^(nu/2)   sqrt(pi) / Gamma(1/2 - nu/2)
        D'_nu(0) = -2^((nu+1)/2) sqrt(pi) / Gamma(-nu/2)

    Both are computed through recip_gamma, so D_nu(0) is exactly 0 at odd
    non-negative integer nu and D'_nu(0) exactly 0 at even non-negative
    integer nu; they are never simultaneously zero.
    """
    d0 = 2.0 ** (0.5 * nu) * _SQRT_PI * recip_gamma(0.5 - 0.5 * nu)
    d0p = -(2.0 ** (0.5 * (nu + 1.0))) * _SQRT_PI * recip_gamma(-0.5 * nu)
    return PcfBoundaryValues(d0, d0p, nu)
