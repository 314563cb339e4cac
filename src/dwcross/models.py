"""The four double-well variants and their level conditions.

All four share one in-barrier at the center:

    m1: Dirac delta between two hard walls at -a and b
    m2: rectangular barrier of height v0 on [-b, b] between walls at -a and c
    m3: Dirac delta joining two half-harmonic wells (hw1 left, hw2 right)
    m4: rectangular barrier on (-a, a) joining two offset harmonic wells

Each variant is one frozen dataclass, M1Params..M4Params, derived from
ModelParams.  The class holds the parameters and everything the solver,
the oracle, the sweep and the CLI need to know about the variant: its
tag (`kind`), the parameter a sweep varies (`sweep_param`, which `at`
sets to a new value), the characteristic function, the smooth
potential and its cell average, the level-window estimate, the delta
strength, the shooting breakpoints, the box walls and the oracle's
grid ends.  Other modules ask the model, never its type.  VARIANTS
maps each tag to its class.

Each variant writes its level condition once, as `_char(e, u, ops)`:
one formula over the primitives in `ops` (square root, sine, cosine,
the reciprocal-gamma and barrier factors, a signed log and a rescaled
signed-exponential sum).  `char` evaluates it at one energy with
_SCALAR, the math-module primitives, and returns a float; `char_values`
evaluates it on a 1-D array of energies with _ARRAY, the numpy
primitives, with each branch an np.where over the block.  Root
refinement stays on `char` (through characteristic_fn): a numpy call on
one element costs several times the math-module arithmetic.  The two
forms agree to a few ulp (numpy may round exp, log, cos, cosh and sinh
differently, and adds in order where the scalar sum uses fsum); signs
agree away from the roots.

With _ARRAY, `_char` also returns N(E), the exact number of levels
strictly below each energy, from F's own values.  By the Sturm
oscillation theorem piece by piece, with the line split at x0 (the delta,
or the barrier's left edge), N = P_L + P_R + [G < 0]: P_L and P_R count
the levels of the pieces walled at x0, and G = psi_L'/psi_L -
psi_R'/psi_R (+ u v0 for a delta) falls between its poles and has the
sign of F psi_L(x0) psi_R(x0) (of minus that for m3, whose F carries a
leading minus).  Each piece's count steps exactly where the sign of its
psi(x0), as F computes it, changes.

Each characteristic function is written in a pole-free, spurious-root-free
form: gamma ratios are cleared into reciprocal-gamma products (entire in E,
and they keep the odd-parity roots that ratio forms lose at the symmetric
point), the rectangular-barrier factors are evaluated as entire functions
of v0 - E (so sweeps pass smoothly through E = v0 and sub/over-barrier
branches join without caller branching), and an E-continuous positive
rescale keeps values representable at large quantum numbers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import DomainError, ModelMismatchError
from .specfun import recip_gamma_log, recip_gamma_log_values

__all__ = [
    "UnitsConfig",
    "ModelParams",
    "M1Params",
    "M2Params",
    "M3Params",
    "M4Params",
    "VARIANTS",
    "characteristic",
    "characteristic_fn",
    "model_kind",
]

_LN_SQRT2 = 0.5 * math.log(2.0)

# |log terms| above this trigger a common positive rescale before summation.
_LOG_RESCALE_THRESHOLD = 600.0

# Barrier factors switch to their power series when (2*half_width)^2*(v0-E)
# is below this, which joins the E<v0, E=v0 and E>v0 branches smoothly.
_BARRIER_SERIES_CUT = 1e-6

# Barrier arguments above this are held at it: the factors then carry a
# common positive rescale instead of overflowing.
_BARRIER_ARG_CAP = 350.0
_BARRIER_BIG = 0.5 * math.exp(_BARRIER_ARG_CAP)


@dataclass(frozen=True)
class UnitsConfig:
    """Unit system constant u = 2*mu/hbar^2 in (eV Angstrom^2)^-1.

    u = 1 corresponds to mu ~ 4 electron masses; u = 0.2625 to mu = m_e.
    """

    u: float = 1.0

    def __post_init__(self) -> None:
        if not (self.u > 0.0 and math.isfinite(self.u)):
            raise ValueError(f"units constant u must be positive and finite, got {self.u}")


@dataclass(frozen=True)
class ModelParams:
    """Base of the four variants: shared validation and the interface.

    Every field must be finite, and v0 >= 0 (a repulsive in-barrier).
    Subclasses set the class attributes `kind` and `sweep_param`.
    """

    kind: ClassVar[str]
    sweep_param: ClassVar[str]

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{self.kind} requires finite parameters, got {f.name}={value}")
        if self.v0 < 0.0:
            raise ValueError(f"{self.kind} requires v0 >= 0 (repulsive in-barrier)")

    def _char(self, e: float | np.ndarray, u: float, ops: _Ops) -> float | np.ndarray:
        """F at e, a float (ops = _SCALAR), or (F, N) on a 1-D array of
        energies (ops = _ARRAY); e is positive and finite."""
        raise NotImplementedError

    def char(self, energy: float, units: UnitsConfig) -> float:
        """Characteristic function at one energy; its zeros on (0, inf) are
        the levels.

        Raises:
            DomainError: energy is not positive and finite.
        """
        _require_positive_energy(energy)
        return self._char(energy, units.u, _SCALAR)

    def char_values(
        self, energies: np.ndarray, units: UnitsConfig, at: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """(F, N) at every energy of a 1-D array, in one pass of array
        operations: `char` and the level count (see the module docstring).

        at, when given, is the sweep parameter at each energy (a 1-D array
        aligned with energies): then each (F, N) is that of self.at(value),
        bit for bit, with every model of a sweep in one call.  The values
        are not checked here; the caller builds those models.

        Raises:
            DomainError: some energy is not positive and finite.
        """
        model = self
        if at is not None:
            model = object.__new__(type(self))
            model.__dict__.update(vars(self), **{self.sweep_param: np.asarray(at, dtype=float)})
        return model._char(_positive_energies(energies), units.u, _ARRAY)

    def at(self, value: float) -> ModelParams:
        """The same model with its sweep parameter set to value (validated)."""
        return dataclasses.replace(self, **{self.sweep_param: value})

    def potential(self, units: UnitsConfig, x: np.ndarray) -> np.ndarray:
        """Smooth part of V(x) in eV on the given positions (delta terms excluded).

        Harmonic arms are (u/4) hw^2 (x - x0)^2, which is (1/2) mu omega^2
        (x-x0)^2 expressed through u and hbar*omega.
        """
        raise NotImplementedError

    def cell_average(self, units: UnitsConfig, x: np.ndarray, h: float) -> np.ndarray:
        """Average of the smooth potential over each grid cell [x-h/2, x+h/2].

        For the rectangular-barrier models the step edges generally fall
        between nodes; pointwise sampling then carries an O(h) edge-placement
        error that Richardson extrapolation cannot cancel.  Those models
        average the exact piecewise integral, which restores smooth O(h^2)
        behavior.  The smooth models (m1, m3) keep pointwise values.
        """
        return self.potential(units, x)

    def level_window(self, units: UnitsConfig, n_levels: int) -> float:
        """Upper bound on the n-th level, for initial scan windows and
        oracle domain sizing.  Kept tight on purpose: the scan's cells and
        the oracle's grid scale with it.  solve_levels grows the window if
        the count ever says it falls short.

        Bounds used: a positive delta spike is a rank-one perturbation, so
        E_n(v0) <= E_{n+1}(v0=0) (interlacing); a rectangular barrier is
        dominated both by lifting the whole box floor to v0 and by hard
        walls at its edges (min-max).
        """
        raise NotImplementedError

    @property
    def delta_strength(self) -> float | None:
        """Strength of the delta spike at x = 0; None for the rectangular
        barriers, which have no spike."""
        return None

    @property
    def breakpoints(self) -> list[float]:
        """Interior positions where the potential steps or a delta sits; the
        shooting integration is split there so each span stays smooth.  The
        default is the delta variants' spike at x = 0."""
        return [0.0]

    @property
    def walls(self) -> tuple[float, float] | None:
        """Positions of the hard walls; None for the harmonic pairs."""
        return None

    def domain(self, e_top: float, units: UnitsConfig) -> tuple[float, float]:
        """Ends (left, right) of the oracle's grid: the walls of a box
        variant, whatever the energy.  A harmonic pair truncates each arm
        two classical turning points of e_top from its well's center
        (_TURNING_POINT_MARGIN), which is exactly where V = 4 e_top."""
        return self.walls


def _require_positive_energy(energy: float) -> None:
    if not (energy > 0.0 and math.isfinite(energy)):
        raise DomainError(f"characteristic functions are defined for E > 0, got {energy!r}")


def _positive_energies(energies: np.ndarray) -> np.ndarray:
    e = np.asarray(energies, dtype=np.float64)
    # a NaN makes min() NaN, which fails the test as a non-positive does
    if e.size and not (e.min() > 0.0 and math.isfinite(e.max())):
        _require_positive_energy(float(e[~((e > 0.0) & np.isfinite(e))][0]))
    return e


def _barrier_factors(w: float, half_width: float) -> tuple[float, float]:
    """Entire-in-w barrier factors C(w) = cosh(2L*sqrt(w)) and
    S(w) = sinh(2L*sqrt(w))/sqrt(w), continued through w <= 0.

    w = u*(v0 - E) and L = half_width.  For w < 0 these are cos and
    sin/sqrt(-w); near w = 0 both are evaluated by series, so a sweep in E
    crosses the top of the barrier smoothly and no spurious root appears
    at E = v0.  When the argument would overflow, both factors carry a
    common positive rescale exp(350 - s), which preserves signs, zeros and
    continuity in E.
    """
    width = 2.0 * half_width
    s2 = width * width * w
    if abs(s2) < _BARRIER_SERIES_CUT:
        c = 1.0 + s2 * (0.5 + s2 * (1.0 / 24.0 + s2 / 720.0))
        s = width * (1.0 + s2 * (1.0 / 6.0 + s2 * (1.0 / 120.0 + s2 / 5040.0)))
        return c, s
    if w > 0.0:
        root = math.sqrt(w)
        arg = width * root
        if arg <= _BARRIER_ARG_CAP:
            return math.cosh(arg), math.sinh(arg) / root
        return _BARRIER_BIG, _BARRIER_BIG / root
    root = math.sqrt(-w)
    arg = width * root
    return math.cos(arg), math.sin(arg) / root


def _barrier_factor_values(w: np.ndarray, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """_barrier_factors on an array of w: every branch evaluated, then
    selected per element."""
    width = 2.0 * half_width
    s2 = width * width * w
    series_c = 1.0 + s2 * (0.5 + s2 * (1.0 / 24.0 + s2 / 720.0))
    series_s = width * (1.0 + s2 * (1.0 / 6.0 + s2 * (1.0 / 120.0 + s2 / 5040.0)))
    root = np.sqrt(np.abs(w))
    arg = width * root
    below_cap = arg <= _BARRIER_ARG_CAP
    capped = np.minimum(arg, _BARRIER_ARG_CAP)
    hyper_c = np.where(below_cap, np.cosh(capped), _BARRIER_BIG)
    hyper_s = np.where(below_cap, np.sinh(capped), _BARRIER_BIG)
    with np.errstate(divide="ignore", invalid="ignore"):
        # root is 0 only where the series branch is taken
        hyper_s = hyper_s / root
        trig_s = np.sin(arg) / root
    series = np.abs(s2) < _BARRIER_SERIES_CUT
    over = w > 0.0
    c = np.where(series, series_c, np.where(over, hyper_c, np.cos(arg)))
    s = np.where(series, series_s, np.where(over, hyper_s, trig_s))
    return c, s


def _signed_exp_sum(terms: list[tuple[int, float]]) -> float:
    """Sum sign*exp(log) over terms, under a common positive rescale.

    Terms with sign 0 are dead (an exact reciprocal-gamma zero).  When the
    largest live log exceeds the rescale threshold, every term is shifted
    by the same amount; the shift is continuous in the underlying energy,
    so rescaled characteristic values keep their signs, zeros and
    continuity.
    """
    live = [(s, l) for s, l in terms if s != 0]
    if not live:
        return 0.0
    peak = max(l for _, l in live)
    shift = peak - _LOG_RESCALE_THRESHOLD if peak > _LOG_RESCALE_THRESHOLD else 0.0
    return math.fsum(s * math.exp(l - shift) for s, l in live)


def _signed_exp_sum_values(terms: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """_signed_exp_sum per element; the live terms are added in order
    rather than by fsum, so sums of three or four terms may differ from
    the scalar one in the last place."""
    logs = [np.where(sign == 0.0, -math.inf, log) for sign, log in terms]
    peak = logs[0]
    for log in logs[1:]:
        peak = np.maximum(peak, log)
    shift = np.where(
        peak > _LOG_RESCALE_THRESHOLD, peak - _LOG_RESCALE_THRESHOLD, 0.0
    )
    total = np.zeros_like(shift)
    for (sign, _), log in zip(terms, logs):
        total += sign * np.exp(log - shift)
    return total


def _gamma_factors(nu1: float, nu2: float):
    """(sign, log) of h1, h2, j1, j2 = 1/Gamma(-nu_i/2), 1/Gamma(1/2 - nu_i/2)."""
    return (
        recip_gamma_log(-0.5 * nu1),
        recip_gamma_log(-0.5 * nu2),
        recip_gamma_log(0.5 - 0.5 * nu1),
        recip_gamma_log(0.5 - 0.5 * nu2),
    )


def _gamma_factor_values(nu1: np.ndarray, nu2: np.ndarray):
    """_gamma_factors on arrays of orders, with one recip_gamma_log_values
    call over the four arguments stacked."""
    args = np.concatenate((-0.5 * nu1, -0.5 * nu2, 0.5 - 0.5 * nu1, 0.5 - 0.5 * nu2))
    signs, logs = recip_gamma_log_values(args)
    return tuple(zip(np.split(signs, 4), np.split(logs, 4)))


def _signed_log(x: float) -> tuple[int, float]:
    """(sign, log|x|); sign 0 and log -inf at x = 0, a dead term."""
    if x == 0.0:
        return 0, -math.inf
    return (1 if x > 0.0 else -1), math.log(abs(x))


def _signed_log_values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_signed_log per element."""
    with np.errstate(divide="ignore"):
        return np.sign(x), np.log(np.abs(x))


def _box_count(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Levels strictly below E of a box piece of width d, from q = k d / pi
    and s = sin(k d) as F computes it: floor(q), moved by one where rounding
    puts q and s on different sides of a pole, so that the count steps
    exactly where s changes sign."""
    n = np.floor(q)
    agree = (s < 0.0) == (n % 2.0 == 1.0)
    return np.where(agree | (s == 0.0), n, np.where(q - n > 0.5, n + 1.0, n - 1.0))


def _harmonic_count(x: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Levels strictly below E of a half-harmonic piece walled at its
    center: the poles 0, -1, -2, ... of Gamma at or above x = 1/2 - nu/2.
    A pole counts as reached where sign, that of 1/Gamma(x), is 0 (within
    POLE_TOLERANCE), so the count steps exactly where the sign changes."""
    return np.where(sign == 0.0, 1.0 - np.rint(x), np.floor(-x) + 1.0)


def _barrier_count(
    w: np.ndarray, half_width: float, start: np.ndarray, slope: np.ndarray, end: np.ndarray
) -> np.ndarray:
    """Zeros inside a rectangular barrier of a piece's solution that enters
    it with signs start and slope (value, outward derivative) and leaves it
    with sign end.  Below the top (w >= 0) it changes sign at most once;
    above, it turns by 2Lp, p = sqrt(-w), and each of the n0 = floor(2Lp/pi)
    half-turns adds a zero and flips its sign, so one more zero lies in the
    rest where (-1)^n0 end differs from the entry sign (the slope's at a
    zero), or is 0 after a nonzero start.  n0 and end change together."""
    turns = np.floor(2.0 * half_width * np.sqrt(np.maximum(-w, 0.0)) / math.pi)
    end = np.where(turns % 2.0 == 1.0, -end, end) * np.where(start == 0.0, slope, start)
    return turns + ((end < 0.0) | ((end == 0.0) & (start != 0.0)))


def _sum_sign(s1: np.ndarray, l1: np.ndarray, s2: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Sign of s1 exp(l1) + s2 exp(l2), from the logs, with no exponential."""
    return np.where(l1 > l2, s1, np.where(l1 < l2, s2, 0.5 * (s1 + s2)))


class _Ops(NamedTuple):
    """The primitives a level condition is built from, for one input form."""

    sqrt: Callable
    sin: Callable
    cos: Callable
    gamma_factors: Callable
    barrier_factors: Callable
    signed_log: Callable
    signed_exp_sum: Callable
    log: Callable  # of the parameter terms, which `at` may make arrays
    counts: bool  # _char returns (F, N), not F


# _gamma_factors looks recip_gamma_log up in this module's globals at each
# call, so a wrapper installed there (perfbench's tracer) sees every call;
# recip_gamma_log itself must not go into the table.
_SCALAR = _Ops(
    math.sqrt, math.sin, math.cos,
    _gamma_factors, _barrier_factors, _signed_log, _signed_exp_sum, math.log, False,
)
_ARRAY = _Ops(
    np.sqrt, np.sin, np.cos,
    _gamma_factor_values, _barrier_factor_values, _signed_log_values, _signed_exp_sum_values,
    np.log, True,
)


def _harmonic_orders(energy, hw1: float, hw2, u: float, ops: _Ops):
    """(nu1, nu2, alpha1, alpha2); hw2, the sweep parameter, may be an
    array aligned with the energies."""
    nu1 = energy / hw1 - 0.5
    nu2 = energy / hw2 - 0.5
    alpha1 = math.sqrt(u * hw1)
    alpha2 = ops.sqrt(u * hw2)
    return nu1, nu2, alpha1, alpha2


# Harmonic oracle grids end this many classical turning points of the
# sizing energy e_top from each well's center: at two, V = 4 e_top there.
_TURNING_POINT_MARGIN = 2.0


def _harmonic_reach(e_top: float, hw: float, u: float) -> float:
    """Distance from a harmonic well's center to its end of the oracle grid."""
    x_turn = 2.0 * math.sqrt(e_top / u) / hw
    return _TURNING_POINT_MARGIN * x_turn


def _harmonic_window(hw1: float, hw2: float, n_levels: int) -> float:
    hmean = 2.0 * hw1 * hw2 / (hw1 + hw2)
    return (n_levels + 2) * hmean + 3.0 * max(hw1, hw2)


@dataclass(frozen=True)
class M1Params(ModelParams):
    """Delta spike of strength v0 (eV*Angstrom) between walls at -a and b."""

    kind = "m1"
    sweep_param = "b"

    v0: float
    a: float
    b: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("m1 requires a > 0 and b > 0")

    def _char(self, e, u: float, ops: _Ops):
        """Delta-between-walls level condition.

            F(E) = k sin(k(a+b)) + u v0 sin(ka) sin(kb),   k = sqrt(uE)

        The leading k restores dimensional consistency and reproduces the
        symmetric reduction k cot(ka) = -u v0 / 2 at a = b.  F is entire in E
        and its zeros on (0, inf) are exactly the spectrum.  sin(k(a+b)) is
        expanded so that F changes sign where sin(ka) and sin(kb) vanish together.
        """
        k = ops.sqrt(u * e)
        s_a, s_b = ops.sin(k * self.a), ops.sin(k * self.b)
        f = k * (s_a * ops.cos(k * self.b) + ops.cos(k * self.a) * s_b) + u * self.v0 * (s_a * s_b)
        if not ops.counts:
            return f
        n_left = _box_count(k * (self.a / math.pi), s_a)
        n_right = _box_count(k * (self.b / math.pi), s_b)
        return f, n_left + n_right + (f * np.sign(s_a) * np.sign(s_b) < 0.0)

    def potential(self, units: UnitsConfig, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def level_window(self, units: UnitsConfig, n_levels: int) -> float:
        width = self.a + self.b
        return ((n_levels + 3) * math.pi / width) ** 2 / units.u + 1.0

    @property
    def delta_strength(self) -> float:
        return self.v0

    @property
    def walls(self) -> tuple[float, float]:
        return -self.a, self.b


@dataclass(frozen=True)
class M2Params(ModelParams):
    """Rectangular barrier of height v0 (eV) on [-b, b], walls at -a and c."""

    kind = "m2"
    sweep_param = "c"

    v0: float
    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.a > self.b > 0.0):
            raise ValueError("m2 requires a > b > 0 (left well width a-b > 0)")
        if not (self.c > self.b):
            raise ValueError("m2 requires c > b (right well width c-b > 0)")

    def _char(self, e, u: float, ops: _Ops):
        """Rectangular-barrier double-well level condition, pole free.

        With d1 = a-b, d2 = c-b, d = d1+d2, w = u(v0-E) and the entire barrier
        factors C(w), S(w) of half-width b:

            F(E) = k sin(kd) C(w) + [k^2 cos(kd) + u v0 sin(kd1) sin(kd2)] S(w)

        This is the opened matching determinant divided by p = sqrt(w), which
        removes the spurious root the raw determinant has at E = v0; the S(w)
        series at w ~ 0 is precisely the linear-interior-solution matching
        condition, and w < 0 continues the formula above the barrier.
        """
        k = ops.sqrt(u * e)
        d1 = self.a - self.b
        d2 = self.c - self.b
        s1 = ops.sin(k * d1)
        s2 = ops.sin(k * d2)
        w = u * (self.v0 - e)
        c_fac, s_fac = ops.barrier_factors(w, self.b)
        kd = k * (d1 + d2)
        # s1*s2 grouped so that swapping the two wells gives a bitwise
        # identical value (float multiplication commutes but not associates)
        f = k * ops.sin(kd) * c_fac + (k * k * ops.cos(kd) + u * self.v0 * (s1 * s2)) * s_fac
        if not ops.counts:
            return f
        # the right piece's solution sin(k(c - x)) from b through the barrier
        c2 = np.cos(k * d2)
        end = np.sign(c_fac * s2 + s_fac * (k * c2))
        n_right = _box_count(k * (d2 / math.pi), s2)
        n_right += _barrier_count(w, self.b, np.sign(s2), np.sign(c2), end)
        n_left = _box_count(k * (d1 / math.pi), s1)
        return f, n_left + n_right + (f * np.sign(s1) * end < 0.0)

    def potential(self, units: UnitsConfig, x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x) <= self.b, self.v0, 0.0)

    def cell_average(self, units: UnitsConfig, x: np.ndarray, h: float) -> np.ndarray:
        lo = np.maximum(x - 0.5 * h, -self.b)
        hi = np.minimum(x + 0.5 * h, self.b)
        return self.v0 * np.maximum(0.0, hi - lo) / h

    def level_window(self, units: UnitsConfig, n_levels: int) -> float:
        # walls at -b and b only raise the levels, to at most the wider
        # well's box levels, whatever v0 is
        lifted = ((n_levels + 2) * math.pi / (self.a + self.c)) ** 2 / units.u + self.v0
        walled = (n_levels * math.pi / max(self.a - self.b, self.c - self.b)) ** 2 / units.u
        return min(lifted, walled) + 1.0

    @property
    def breakpoints(self) -> list[float]:
        return [-self.b, self.b]

    @property
    def walls(self) -> tuple[float, float]:
        return -self.a, self.c


@dataclass(frozen=True)
class M3Params(ModelParams):
    """Delta spike of strength v0 (eV*Angstrom) joining half-harmonic wells."""

    kind = "m3"
    sweep_param = "hw2"

    v0: float
    hw1: float
    hw2: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.hw1 > 0.0 and self.hw2 > 0.0):
            raise ValueError("m3 requires hw1 > 0 and hw2 > 0")

    def _char(self, e, u: float, ops: _Ops):
        """Delta-in-harmonic-well level condition, pole free.

        Clearing the gamma-ratio matching condition into reciprocal-gamma
        factors h_i = 1/Gamma(-nu_i/2), j_i = 1/Gamma(1/2 - nu_i/2) and
        normalizing by the positive factor 2^(-(nu1+nu2)/2)/pi gives

            F(E) = -[ sqrt(2) (alpha2 h2 j1 + alpha1 h1 j2) + u v0 j1 j2 ]

        which is entire in E and, unlike the ratio form, keeps the odd-parity
        roots at hw1 = hw2 where D_nu(0) = 0 (there all three products vanish
        through the exact zeros of j).  Terms are combined in log space.
        """
        nu1, nu2, alpha1, alpha2 = _harmonic_orders(e, self.hw1, self.hw2, u, ops)
        (sh1, lh1), (sh2, lh2), (sj1, lj1), (sj2, lj2) = ops.gamma_factors(nu1, nu2)
        terms = [
            (sh2 * sj1, _LN_SQRT2 + ops.log(alpha2) + lh2 + lj1),
            (sh1 * sj2, _LN_SQRT2 + math.log(alpha1) + lh1 + lj2),
        ]
        if self.v0 > 0.0:
            terms.append((sj1 * sj2, math.log(u * self.v0) + lj1 + lj2))
        f = -ops.signed_exp_sum(terms)
        if not ops.counts:
            return f
        n_left = _harmonic_count(0.5 - 0.5 * nu1, sj1)
        n_right = _harmonic_count(0.5 - 0.5 * nu2, sj2)
        return f, n_left + n_right + (f * sj1 * sj2 > 0.0)

    def potential(self, units: UnitsConfig, x: np.ndarray) -> np.ndarray:
        curv = np.where(x < 0.0, self.hw1, self.hw2)
        return 0.25 * units.u * curv * curv * x * x

    def level_window(self, units: UnitsConfig, n_levels: int) -> float:
        return _harmonic_window(self.hw1, self.hw2, n_levels)

    def domain(self, e_top: float, units: UnitsConfig) -> tuple[float, float]:
        return (
            -_harmonic_reach(e_top, self.hw1, units.u),
            _harmonic_reach(e_top, self.hw2, units.u),
        )

    @property
    def delta_strength(self) -> float:
        return self.v0


@dataclass(frozen=True)
class M4Params(ModelParams):
    """Rectangular barrier of height v0 (eV) on (-a, a) between harmonic wells.

    The wells are centered on the barrier edges: hw1 curvature in (x+a) for
    x <= -a and hw2 curvature in (x-a) for x >= a.
    """

    kind = "m4"
    sweep_param = "hw2"

    v0: float
    hw1: float
    hw2: float
    a: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.hw1 > 0.0 and self.hw2 > 0.0):
            raise ValueError("m4 requires hw1 > 0 and hw2 > 0")
        if self.a < 0.0:
            raise ValueError("m4 requires a >= 0 (barrier half-width)")

    def _char(self, e, u: float, ops: _Ops):
        """Barrier-in-harmonic-well level condition, pole free.

        With h_i, j_i as in M3Params._char, w = u(v0-E), and the entire
        barrier factors C(w), S(w) of half-width a:

            F(E) = sqrt(2) (alpha1 h1 j2 + alpha2 h2 j1) C(w)
                 + [ w j1 j2 + 2 alpha1 alpha2 h1 h2 ] S(w)

        Derived by eliminating the interior sinh/cosh amplitudes between the
        two matching interfaces and clearing denominators; the w j1 j2 term
        carries q^2 = w through both branches, S(w) removes the spurious root
        at E = v0, and the sign of the S-group is fixed by the parity
        factorization at hw1 = hw2 and by the delta limit (a -> 0 with
        2 a v0 held fixed reproduces m3).  Terms combine in log space
        under the same positive rescale as m3.  Each factor enters as a
        (sign, log) pair; a zero factor, or w = 0, has sign 0 and leaves its
        term dead.
        """
        nu1, nu2, alpha1, alpha2 = _harmonic_orders(e, self.hw1, self.hw2, u, ops)
        (sh1, lh1), (sh2, lh2), (sj1, lj1), (sj2, lj2) = ops.gamma_factors(nu1, nu2)
        w = u * (self.v0 - e)
        c_fac, s_fac = ops.barrier_factors(w, self.a)
        sign_c, log_c = ops.signed_log(c_fac)
        sign_s, log_s = ops.signed_log(s_fac)
        sign_w, log_w = ops.signed_log(w)
        terms = [
            (sh1 * sj2 * sign_c, _LN_SQRT2 + math.log(alpha1) + lh1 + lj2 + log_c),
            (sh2 * sj1 * sign_c, _LN_SQRT2 + ops.log(alpha2) + lh2 + lj1 + log_c),
            (sh1 * sh2 * sign_s, ops.log(2.0 * alpha1 * alpha2) + lh1 + lh2 + log_s),
            (sign_w * sj1 * sj2 * sign_s, log_w + lj1 + lj2 + log_s),
        ]
        f = ops.signed_exp_sum(terms)
        if not ops.counts:
            return f
        # as in M2Params._char, with D_nu2 (value ~ j2, slope ~ h2) in
        # place of the right box
        end = _sum_sign(
            sign_c * sj2, log_c + lj2, sign_s * sh2, log_s + _LN_SQRT2 + ops.log(alpha2) + lh2
        )
        n_right = _harmonic_count(0.5 - 0.5 * nu2, sj2)
        n_right += _barrier_count(w, self.a, sj2, sh2, end)
        n_left = _harmonic_count(0.5 - 0.5 * nu1, sj1)
        return f, n_left + n_right + (f * sj1 * end < 0.0)

    def potential(self, units: UnitsConfig, x: np.ndarray) -> np.ndarray:
        u = units.u
        left = 0.25 * u * self.hw1 * self.hw1 * np.square(x + self.a)
        right = 0.25 * u * self.hw2 * self.hw2 * np.square(x - self.a)
        return np.where(x <= -self.a, left, np.where(x >= self.a, right, self.v0))

    def cell_average(self, units: UnitsConfig, x: np.ndarray, h: float) -> np.ndarray:
        u = units.u
        lo = x - 0.5 * h
        hi = x + 0.5 * h

        def quad_piece(center: float, hw: float, a: float, b: float) -> np.ndarray:
            # integral of (u/4) hw^2 (t - center)^2 over [a, b] (b >= a)
            coeff = 0.25 * u * hw * hw / 3.0
            return coeff * ((b - center) ** 3 - (a - center) ** 3)

        left = quad_piece(-self.a, self.hw1, lo, np.minimum(hi, -self.a))
        left = np.where(lo < -self.a, left, 0.0)
        right = quad_piece(self.a, self.hw2, np.maximum(lo, self.a), hi)
        right = np.where(hi > self.a, right, 0.0)
        mid = self.v0 * np.maximum(0.0, np.minimum(hi, self.a) - np.maximum(lo, -self.a))
        return (left + mid + right) / h

    def level_window(self, units: UnitsConfig, n_levels: int) -> float:
        top = _harmonic_window(self.hw1, self.hw2, n_levels)
        return top + min(0.5 * self.v0, (n_levels + 2) * max(self.hw1, self.hw2))

    def domain(self, e_top: float, units: UnitsConfig) -> tuple[float, float]:
        # the wells are centred on the barrier edges -a and a
        return (
            -self.a - _harmonic_reach(e_top, self.hw1, units.u),
            self.a + _harmonic_reach(e_top, self.hw2, units.u),
        )

    @property
    def breakpoints(self) -> list[float]:
        return [-self.a, self.a] if self.a > 0.0 else []


VARIANTS: dict[str, type[ModelParams]] = {
    cls.kind: cls for cls in (M1Params, M2Params, M3Params, M4Params)
}


def characteristic(energy: float, model: ModelParams, units: UnitsConfig) -> float:
    """Evaluate the characteristic function of whichever model is given."""
    if not isinstance(model, ModelParams):
        raise ModelMismatchError(f"unknown model type {type(model).__name__}")
    return model.char(energy, units)


def characteristic_fn(model: ModelParams, units: UnitsConfig):
    """Scalar E -> F(E) closure for the root finder."""

    def f(energy: float) -> float:
        return characteristic(energy, model, units)

    return f


def model_kind(model: ModelParams) -> str:
    """Short tag 'm1'..'m4' for the model variant."""
    return model.kind
