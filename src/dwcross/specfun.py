"""The real-line reciprocal gamma function, alone and in pairs.

The level conditions for the harmonic double wells need Gamma(x) for
arbitrary real x, including deep on the negative axis where Gamma
oscillates between poles.  They take it as 1/Gamma(x), an entire
function, so model code never evaluates Gamma at or near a pole: a factor
is exactly 0 at the poles.

Two forms, as for the level conditions themselves (see dwcross.models).
recip_gamma_log, on one float for root refinement, gives (sign,
log|1/Gamma(x)|) from the standard library's math.lgamma.
recip_gamma_pair_values, on an array for the bracket scan, gives what a
half-harmonic piece needs, the pair (1/Gamma(x + 1/2), 1/Gamma(x)) divided
by its length, from the one ratio Gamma(x + 1/2)/Gamma(x) (reflection, a
fixed recurrence and an asymptotic series; no log-gamma).  Both apply the
same pole rule and give the same signs, bit for bit; the values agree to
the scalar form's error, a few ulp of each log-gamma it subtracts.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = [
    "recip_gamma_log",
    "recip_gamma_pair_values",
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

    The scalar harmonic pieces of the characteristic functions take their
    gamma ratio from two of these logs, exp(log|h| - log|j|), so no gamma
    factor that would overflow is formed.  x within POLE_TOLERANCE
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


# recip_gamma_pair_values takes Gamma(y + 1/2)/Gamma(y) up this many unit
# steps, to z = y + _STEPS >= 8.25, where the series below has converged:
# its first omitted term, -3202291/8912896 z^-17, is below 1e-16.
_STEPS = 8
_RISES = np.arange(_STEPS, dtype=np.float64)[:, None]
_HALF_RISES = _RISES + 0.5
_HALVES = np.array([[0.0], [0.5]])

# log Gamma(z + 1/2) - log Gamma(z) = log(z)/2 + sum_k c_k z^(1 - 2k),
# c_k = B_2k (2^(1 - 2k) - 2) / ((2k - 1) 2k) (DLMF 5.11.8 and 24.4.27),
# k = 8 down to 1.
_SERIES = (
    929569 / 15728640, -5461 / 425984, 691 / 180224, -31 / 18432,
    17 / 14336, -1 / 640, 1 / 192, -1 / 8,
)


def recip_gamma_pair_values(x) -> tuple[np.ndarray, np.ndarray]:
    """(j, h) / sqrt(h^2 + j^2), h = 1/Gamma(x) and j = 1/Gamma(x + 1/2),
    elementwise on an array of x <= 1/4: the ratio R = h/j =
    Gamma(x + 1/2)/Gamma(x) as a unit vector, which stays finite where R
    does not (at the poles of Gamma(x + 1/2)).

    Reflection (DLMF 5.5.3) gives (j, h) = Gamma(y)/pi (cos pi x,
    R(y) sin pi x) with y = 1/2 - x >= 1/4, and R(y) > 0 comes from
    _STEPS steps of R(y) = R(y + 1) y / (y + 1/2) and the series at
    y + _STEPS.  The cosine and sine come from the exact reductions
    t = x - rint(x) and s = x + 1/2 - rint(x + 1/2), each used where its
    tangent is at most 1: (cos pi t, sin pi t) is along
    (min(1, |tan pi s|), clip(tan pi t, -1, 1)), and the parity of rint(x)
    gives the common sign.  No log-gamma is taken.

    The pole rule is recip_gamma_log's: t or s within POLE_TOLERANCE of 0
    makes h or j exactly 0, and elsewhere each has the sign of the
    reciprocal gamma it stands for, so those signs equal recip_gamma_log's.

    Raises:
        DomainError: some x is not finite, or below -2^52, where x and
            x + 1/2 are both integers in floating point.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size and not x.min() > -(2.0**52):
        bad = float(x[~(x > -(2.0**52))].flat[0])
        raise DomainError(f"recip_gamma_pair_values requires finite x > -2^52, got {bad!r}")
    shape, x = x.shape, x.ravel()
    args = x + _HALVES
    near = np.rint(args)
    off = args - near
    tan = np.tan(np.pi * (off * (np.abs(off) >= POLE_TOLERANCE)))
    tan = np.minimum(np.maximum(tan, -1.0), 1.0)
    half = 0.5 * near[0]
    parity = 0.25 - (half - np.floor(half))  # < 0 where rint(x) is odd
    y = 0.5 - x
    steps = np.multiply.reduce(y + _RISES, axis=0) / np.multiply.reduce(y + _HALF_RISES, axis=0)
    z = y + _STEPS
    w = 1.0 / z
    w2 = w * w
    series = _SERIES[0]
    for c in _SERIES[1:]:
        series = series * w2 + c
    ratio = np.sqrt(z) * np.exp(series * w) * steps
    j = np.copysign(tan[1], parity)
    h = np.copysign(ratio, parity) * tan[0]
    norm = np.sqrt(j * j + h * h)
    return (j / norm).reshape(shape), (h / norm).reshape(shape)
