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

Each variant is two pieces joined by a barrier, and writes its level
condition once, as `_char(e, u, ops)`: a join, `_delta` or `_rectangle`,
over the pieces of `_boxes` or `_harmonics`.  A piece gives its value
psi and its slope psi' toward the junction there.  The primitives come
from `ops` (square root, sine, cosine, exponential, maximum, and the
reciprocal-gamma and barrier factors).  `char` evaluates it at one
energy with _SCALAR, the math-module primitives, and returns a float;
`char_values` evaluates it on a 1-D array of energies with _ARRAY, the
numpy primitives, with each branch an np.where over the block, and
`f_values` with _ARRAY_F, the same primitives without the count.  Root
refinement of a few brackets stays on `char` (through characteristic_fn):
a numpy call on one element costs several times the math-module
arithmetic.  The scalar and array forms agree to a few ulp (numpy may
round exp, cos, sin and sinh differently); signs agree away from the
roots.

With _ARRAY, `_char` also returns N(E), the exact number of levels
strictly below each energy, from F's own values.  By the Sturm
oscillation theorem piece by piece, with the line split at x0 (the delta,
or the barrier's left edge), N = P_L + P_R + [G < 0]: P_L and P_R count
the levels of the two sides walled at x0 (each piece gives its own; a
rectangle adds the zeros of the right piece's solution inside it, from
the sign of R psi_R + S g_R, that solution at x0; see `_rectangle`), and
G = psi_L'/psi_L + psi_R'/psi_R (+ u v0 for a delta), with psi_R and
the slopes taken at x0 and toward it, falls between its poles and has
the sign of F psi_L(x0) psi_R(x0).  Each piece's count steps exactly
where the sign of its psi(x0), as F computes it, changes.

Each characteristic function is written in a pole-free, spurious-root-free
form: gamma ratios are cleared into reciprocal-gamma products (entire in E,
and they keep the odd-parity roots that ratio forms lose at the symmetric
point), the rectangular barrier's F, though not each of its factors, is
entire in v0 - E (so sweeps pass smoothly through E = v0 and the sub- and
over-barrier branches join without caller branching), and no two of its
terms cancel near a doublet; E-continuous positive rescales of each
harmonic piece and of the barrier factors (by a cap on their argument)
keep values representable.
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

# Barrier arguments above this are held at it: the factors then carry a
# common positive rescale instead of overflowing.
_BARRIER_ARG_CAP = 350.0

# A harmonic piece's value and slope carry one positive rescale that keeps
# their logs at or below this, so that piece x piece x barrier factor
# (at most e^350) stays finite.
_PIECE_LOG_CAP = 150.0


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
        """F at e, a float (ops = _SCALAR), or on a 1-D array of energies
        (F, N) (ops = _ARRAY) or F alone (ops = _ARRAY_F); e is positive
        and finite."""
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
        return self._varied(at)._char(_positive_energies(energies), units.u, _ARRAY)

    def f_values(
        self, energies: np.ndarray, units: UnitsConfig, at: np.ndarray | None = None
    ) -> np.ndarray:
        """F alone, as char_values gives it bit for bit, without the count:
        the same _char with _ARRAY's counts switched off.

        Raises:
            DomainError: some energy is not positive and finite.
        """
        return self._varied(at)._char(_positive_energies(energies), units.u, _ARRAY_F)

    def _varied(self, at: np.ndarray | None) -> ModelParams:
        """self, or with at given a copy whose sweep parameter is that array
        (unvalidated: char_values' at)."""
        if at is None:
            return self
        model = object.__new__(type(self))
        model.__dict__.update(vars(self), **{self.sweep_param: np.asarray(at, dtype=float)})
        return model

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


def _barrier_factors(w: float, half_width: float) -> tuple[float, float, float, float]:
    """Barrier factors (p, S, R, K) for `_rectangle`, at w = u*(v0 - E) and
    L = half_width: (sqrt(w), sinh(2Lp)/p, exp(-2Lp), 0) below the top, so
    that cosh(2Lp) = R + p S; (0, sin(2Lq)/q, cos(2Lq), w S), q = sqrt(-w),
    above it; and their common limit (0, 2L, 1, 0) at w = 0, so a sweep in
    E crosses the top smoothly.  Past 2Lp = 350, S and R carry one common
    positive rescale exp(350 - 2Lp) instead of overflowing.
    """
    width = 2.0 * half_width
    if w > 0.0:
        root = math.sqrt(w)
        arg = width * root
        capped = arg if arg <= _BARRIER_ARG_CAP else _BARRIER_ARG_CAP
        return root, math.sinh(capped) / root, math.exp(capped - 2.0 * arg), 0.0
    if w == 0.0:
        return 0.0, width, 1.0, 0.0
    root = math.sqrt(-w)
    arg = width * root
    s_fac = math.sin(arg) / root
    return 0.0, s_fac, math.cos(arg), w * s_fac


def _barrier_factor_values(w: np.ndarray, half_width: float) -> tuple[np.ndarray, ...]:
    """_barrier_factors on an array of w: both branches evaluated, then
    selected per element (at w = 0, cos gives R its limit 1)."""
    width = 2.0 * half_width
    root = np.sqrt(np.abs(w))
    arg = width * root
    capped = np.minimum(arg, _BARRIER_ARG_CAP)
    over = w > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        # root is 0 only at w = 0, where S is its limit 2L
        s_fac = np.where(w == 0.0, width, np.where(over, np.sinh(capped), np.sin(arg)) / root)
    r_fac = np.where(over, np.exp(capped - 2.0 * arg), np.cos(arg))
    return np.where(over, root, 0.0), s_fac, r_fac, np.minimum(w, 0.0) * s_fac


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
    return tuple(zip(signs.reshape(4, -1), logs.reshape(4, -1)))


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


class _Ops(NamedTuple):
    """The primitives a level condition is built from, for one input form."""

    sqrt: Callable
    sin: Callable
    cos: Callable
    exp: Callable
    maximum: Callable
    gamma_factors: Callable
    barrier_factors: Callable
    counts: bool  # _char returns (F, N), not F


# _gamma_factors looks recip_gamma_log up in this module's globals at each
# call, so a wrapper installed there (perfbench's tracer) sees every call;
# recip_gamma_log itself must not go into the table.
_SCALAR = _Ops(
    math.sqrt, math.sin, math.cos, math.exp, max, _gamma_factors, _barrier_factors, False
)
_ARRAY = _Ops(
    np.sqrt, np.sin, np.cos, np.exp, np.maximum, _gamma_factor_values, _barrier_factor_values,
    True,
)
_ARRAY_F = _ARRAY._replace(counts=False)


# A piece is (psi, slope, count): its value and its slope toward the
# junction there, and with ops.counts its levels strictly below E when it
# is walled at the junction (else None).


def _boxes(k, d1, d2, ops: _Ops):
    """The box pieces of widths d1 and d2 at wave number k: (sin kd, k cos kd)."""
    s1, s2 = ops.sin(k * d1), ops.sin(k * d2)
    n1 = n2 = None
    if ops.counts:
        n1, n2 = _box_count(k * (d1 / math.pi), s1), _box_count(k * (d2 / math.pi), s2)
    return (s1, k * ops.cos(k * d1), n1), (s2, k * ops.cos(k * d2), n2)


def _harmonic(nu, root_two_alpha, h, j, ops: _Ops):
    (sign_h, log_h), (sign_j, log_j) = h, j
    shift = ops.maximum(ops.maximum(log_h, log_j) - _PIECE_LOG_CAP, 0.0)
    slope = root_two_alpha * sign_h * ops.exp(log_h - shift)
    count = _harmonic_count(0.5 - 0.5 * nu, sign_j) if ops.counts else None
    return sign_j * ops.exp(log_j - shift), slope, count


def _harmonics(e, hw1: float, hw2, u: float, ops: _Ops):
    """The half-harmonic pieces of hw1 and hw2 at energy e:
    (j, sqrt(2) alpha h), with h = 1/Gamma(-nu/2), j = 1/Gamma(1/2 - nu/2),
    nu = e/hw - 1/2 and alpha = sqrt(u hw), both times one positive factor
    that keeps their logs at or below _PIECE_LOG_CAP (continuous in e, so
    F keeps its signs and zeros).  hw2, the sweep parameter, may be an
    array aligned with the energies."""
    nu1, nu2 = e / hw1 - 0.5, e / hw2 - 0.5
    h1, h2, j1, j2 = ops.gamma_factors(nu1, nu2)
    left = _harmonic(nu1, math.sqrt(2.0 * u * hw1), h1, j1, ops)
    return left, _harmonic(nu2, ops.sqrt(2.0 * u * hw2), h2, j2, ops)


def _delta(left, right, strength, ops: _Ops):
    """F of two pieces joined by a delta of strength u v0:

        F = psi_L psi'_R + psi'_L psi_R + u v0 psi_L psi_R

    and with ops.counts (F, N)."""
    psi_l, slope_l, n_left = left
    psi_r, slope_r, n_right = right
    f = psi_l * slope_r + slope_l * psi_r + strength * (psi_l * psi_r)
    if not ops.counts:
        return f
    return f, n_left + n_right + (f * np.sign(psi_l) * np.sign(psi_r) < 0.0)


def _rectangle(left, right, w, half_width: float, ops: _Ops):
    """F of two pieces joined by a rectangular barrier, w = u(v0 - E), from
    the barrier factors (p, S, R, K) and each piece's g = p psi + psi':

        F = S g_L g_R + R (psi_L psi'_R + psi'_L psi_R) + K psi_L psi_R

    and with ops.counts (F, N).  This is the matching determinant divided by
    p (which removes its spurious root at E = v0) with C = R + p S never
    formed: below the top each g is one well's own matching value behind a
    semi-infinite barrier, accurate when small, so no terms of size
    S w psi^2 cancel down to a doublet's splitting.  The right piece's
    solution reaches the barrier's left edge with value R psi_R + S g_R.
    F is symmetric in the pieces, psi_L psi_R grouped (float products
    commute but do not associate), so swapping them leaves it bitwise equal."""
    psi_l, slope_l, n_left = left
    psi_r, slope_r, n_right = right
    p_fac, s_fac, r_fac, k_fac = ops.barrier_factors(w, half_width)
    g_r = p_fac * psi_r + slope_r
    f = s_fac * ((p_fac * psi_l + slope_l) * g_r) + r_fac * (
        psi_l * slope_r + slope_l * psi_r
    ) + k_fac * (psi_l * psi_r)
    if not ops.counts:
        return f
    end = np.sign(r_fac * psi_r + s_fac * g_r)
    n_right = n_right + _barrier_count(w, half_width, np.sign(psi_r), np.sign(slope_r), end)
    return f, n_left + n_right + (f * np.sign(psi_l) * end < 0.0)


# Harmonic oracle grids end this many classical turning points of the
# sizing energy e_top from each well's center: at two, V = 4 e_top there.
_TURNING_POINT_MARGIN = 2.0


def _harmonic_domain(
    e_top: float, u: float, hw1: float, hw2: float, offset: float
) -> tuple[float, float]:
    """Ends of a harmonic pair's oracle grid, its wells centred at -offset
    and offset: each _TURNING_POINT_MARGIN classical turning points of
    e_top, 2 sqrt(e_top/u)/hw, beyond its well's center."""
    reach = _TURNING_POINT_MARGIN * 2.0 * math.sqrt(e_top / u)
    return -offset - reach / hw1, offset + reach / hw2


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
        """Two boxes joined by a delta, k = sqrt(uE):

            F(E) = k sin(k(a+b)) + u v0 sin(ka) sin(kb)

        The leading k restores dimensional consistency and reproduces the
        symmetric reduction k cot(ka) = -u v0 / 2 at a = b.  F is entire in E
        and its zeros on (0, inf) are exactly the spectrum.  sin(k(a+b)) is
        expanded so that F changes sign where sin(ka) and sin(kb) vanish together.
        """
        return _delta(*_boxes(ops.sqrt(u * e), self.a, self.b, ops), u * self.v0, ops)

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
        """Boxes of widths d1 = a-b and d2 = c-b joined by a rectangle of
        half-width b (p, S, R, K as in _rectangle), d = d1+d2 and
        g_i = p sin(kd_i) + k cos(kd_i):

            F(E) = S g1 g2 + R k sin(kd) + K sin(kd1) sin(kd2)
        """
        pieces = _boxes(ops.sqrt(u * e), self.a - self.b, self.c - self.b, ops)
        return _rectangle(*pieces, u * (self.v0 - e), self.b, ops)

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
        """Two half-harmonic pieces joined by a delta.  Clearing the
        gamma-ratio matching condition into reciprocal-gamma factors
        h_i = 1/Gamma(-nu_i/2), j_i = 1/Gamma(1/2 - nu_i/2) and normalizing by
        the positive factor 2^(-(nu1+nu2)/2)/pi gives, times each piece's
        positive rescale,

            F(E) = sqrt(2) (alpha2 h2 j1 + alpha1 h1 j2) + u v0 j1 j2

        which is entire in E and, unlike the ratio form, keeps the odd-parity
        roots at hw1 = hw2 where D_nu(0) = 0 (there all three products vanish
        through the exact zeros of j).
        """
        return _delta(*_harmonics(e, self.hw1, self.hw2, u, ops), u * self.v0, ops)

    def potential(self, units: UnitsConfig, x: np.ndarray) -> np.ndarray:
        curv = np.where(x < 0.0, self.hw1, self.hw2)
        return 0.25 * units.u * curv * curv * x * x

    def level_window(self, units: UnitsConfig, n_levels: int) -> float:
        return _harmonic_window(self.hw1, self.hw2, n_levels)

    def domain(self, e_top: float, units: UnitsConfig) -> tuple[float, float]:
        return _harmonic_domain(e_top, units.u, self.hw1, self.hw2, 0.0)

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
        """Two half-harmonic pieces (h_i, j_i as in M3Params._char) joined by
        a rectangle of half-width a (p, S, R, K as in _rectangle), with
        g_i = p j_i + sqrt(2) alpha_i h_i; times each piece's rescale,

            F(E) = S g1 g2 + sqrt(2) R (alpha1 h1 j2 + alpha2 h2 j1) + K j1 j2

        Its delta limit (a -> 0 with 2 a v0 held fixed) is m3's F.
        """
        pieces = _harmonics(e, self.hw1, self.hw2, u, ops)
        return _rectangle(*pieces, u * (self.v0 - e), self.a, ops)

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
        return _harmonic_domain(e_top, units.u, self.hw1, self.hw2, self.a)

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
