"""Independent finite-difference ground truth for the analytic solvers.

Central-difference discretization of psi'' + u(E - V)psi = 0 on a uniform
grid with hard Dirichlet ends gives a symmetric tridiagonal matrix whose
eigenvalues are located by Sturm-sequence multisection; Richardson
extrapolation over grids h and h/2 removes the leading O(h^2) error.
A two-sided RK4 shooting check quantifies the Wronskian-proportionality
property that makes 1D bound states non-degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, NonConvergenceError
from .models import ModelParams, UnitsConfig

__all__ = [
    "OracleConfig",
    "TridiagonalHamiltonian",
    "build_hamiltonian",
    "lowest_eigenvalues",
    "oracle_levels",
    "wronskian_constancy",
]

# Interior points when OracleConfig.n_points is left unset.
_DEFAULT_POINTS = {"m1": 4000, "m2": 4000, "m3": 6000, "m4": 6000}

# Shifts of one multisection pass, shared evenly among the distinct cells
# still open, at least _MIN_PROBES per cell.  A pass costs its row loop
# more than its shifts: on a 12 001-row matrix one Sturm pass takes 8.4 ms
# at 8 shifts, 9.2 ms at 35, 10.5 ms at 63, 14.0 ms at 140 and 21.3 ms at
# 280 (2.1 GHz x86-64).  So a pass of 63 shifts splits one open cell 64
# ways where 8 shifts split it 8 ways, for a quarter more time.  compare's
# geometric mean over the five presets read 109 ms at 35 shifts (7 per
# level), 93 ms at 63, 92 ms at 127 and 137 ms at 255.
_SHIFT_BUDGET = 63
_MIN_PROBES = 7

# Multisection passes before a bracket still open is an error.
_MAX_PASSES = 300

# Grid nodes per call of the potential's cell average: holds its
# temporaries to a fixed size on the finest grids.
_ASSEMBLY_BLOCK = 4096

# Multisection width of each eigenvalue in oracle_levels.
_LEVEL_TOL = 1e-11

# Rungs lo + (hi - lo) 2^-k, k = 1.._LADDER_RUNGS, of the count pass that
# starts lowest_eigenvalues: the lowest sits 2^-60 (hi - lo) above the
# Gershgorin bound lo, under the level tolerance of any grid here.
_LADDER_RUNGS = 60

# Relative margin by which oracle_levels' top level may pass the sizing
# bound before the domain grows: far above the levels' own error, so a top
# level equal to the sizing level does not redo the solve on a rounding.
_SIZING_SLACK = 1e-6


@dataclass(frozen=True)
class OracleConfig:
    """Grid controls for the finite-difference oracle.

    n_points: interior grid points (model-dependent default when None).
    richardson: combine grids h and h/2 as (4 E(h/2) - E(h))/3.
    """

    n_points: int | None = None
    richardson: bool = True

    def __post_init__(self) -> None:
        if self.n_points is not None and self.n_points < 500:
            raise ConfigError(f"oracle n_points must be >= 500, got {self.n_points}")

    def resolve_points(self, model: ModelParams) -> int:
        return self.n_points if self.n_points is not None else _DEFAULT_POINTS[model.kind]


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    """Discretized Hamiltonian: diag[i] = 2/(u h^2) + V(x_i) (+ v0/h at the
    delta node), offdiag = -1/(u h^2), interior nodes x_i = x_min + (i+1) h."""

    diag: np.ndarray
    offdiag: np.ndarray
    x_min: float
    h: float
    delta_index: int | None = None

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    @property
    def x_max(self) -> float:
        return self.x_min + (self.size + 1) * self.h


@dataclass(frozen=True)
class _GridSpec:
    x_min: float
    h: float
    n_interior: int
    delta_index: int | None

    @property
    def x_max(self) -> float:
        return self.x_min + (self.n_interior + 1) * self.h

    def refined(self) -> "_GridSpec":
        """Same domain at half the step (intervals doubled)."""
        di = None if self.delta_index is None else 2 * self.delta_index + 1
        return _GridSpec(self.x_min, 0.5 * self.h, 2 * self.n_interior + 1, di)


def _snap_box_grid(left: float, right: float, n_target: int) -> _GridSpec:
    """Grid over the box [left, right] with n near n_target, chosen so a
    node sits as close to x = 0 as the geometry allows (the delta lands on
    that node)."""
    span = right - left
    best: tuple[float, int, float, int] | None = None
    for n in range(n_target, n_target + 241):
        h = span / (n + 1)
        pos = -left / h
        idx = round(pos)
        if idx < 1 or idx > n:
            continue
        off = abs(pos - idx)
        if best is None or off < best[0] - 1e-15:
            best = (off, n, h, idx - 1)
            if off < 1e-9:
                break
    if best is None:
        raise ConfigError(
            "delta node would fall on a boundary; increase n_points for this geometry"
        )
    _, n, h, delta_index = best
    return _GridSpec(left, h, n, delta_index)


def _grid_spec(
    model: ModelParams, units: UnitsConfig, cfg: OracleConfig, e_top: float | None
) -> _GridSpec:
    n_target = cfg.resolve_points(model)
    box = model.walls is not None
    if not box and (e_top is None or not e_top > 0.0):
        raise ConfigError("harmonic models need a positive sizing energy e_top")
    left, right = model.domain(e_top, units)
    if model.delta_strength is None:
        return _GridSpec(left, (right - left) / (n_target + 1), n_target, None)
    if box:
        return _snap_box_grid(left, right, n_target)
    # Step chosen so that x = 0 is exactly a grid node (the delta node).
    h0 = (right - left) / (n_target + 1)
    m_left = max(2, round(-left / h0))
    h = -left / m_left
    m_right = max(2, math.ceil(right / h))
    return _GridSpec(-m_left * h, h, m_left + m_right - 1, m_left - 1)


def _assemble(
    model: ModelParams, units: UnitsConfig, spec: _GridSpec
) -> TridiagonalHamiltonian:
    u = units.u
    kin = 2.0 / (u * spec.h * spec.h)
    diag = np.empty(spec.n_interior)
    for start in range(0, spec.n_interior, _ASSEMBLY_BLOCK):
        stop = min(start + _ASSEMBLY_BLOCK, spec.n_interior)
        x = spec.x_min + spec.h * np.arange(start + 1, stop + 1)
        diag[start:stop] = kin + model.cell_average(units, x, spec.h)
    offdiag = np.full(spec.n_interior - 1, -1.0 / (u * spec.h * spec.h))
    v0 = model.delta_strength
    if v0:  # no spike (None) or a zero-strength one adds nothing
        if spec.delta_index is None:
            raise ConfigError("delta model without a delta node in the grid")
        diag[spec.delta_index] += v0 / spec.h
    return TridiagonalHamiltonian(
        diag=diag,
        offdiag=offdiag,
        x_min=spec.x_min,
        h=spec.h,
        delta_index=spec.delta_index,
    )


def build_hamiltonian(
    model: ModelParams,
    units: UnitsConfig,
    cfg: OracleConfig,
    e_top: float | None = None,
) -> TridiagonalHamiltonian:
    """Tridiagonal discretization of the model on its natural domain.

    Box models (m1, m2) use their walls exactly; harmonic models are
    truncated where V >= 4*e_top (e_top defaults to a variant-specific
    level-count estimate).  Delta spikes enter as v0/h on the diagonal at
    the node placed at x = 0.
    """
    if e_top is None:
        e_top = model.level_window(units, 6)
    return _assemble(model, units, _grid_spec(model, units, cfg, e_top))


def lowest_eigenvalues(
    T: TridiagonalHamiltonian,
    n: int,
    tol: float = 1e-10,
    *,
    _seeds: list[float] | None = None,
) -> list[float]:
    """First n eigenvalues, each bracketed by Sturm-count multisection to
    an interval of width <= tol; deterministic.

    The first pass counts the ladder lo + (hi - lo) 2^-k, k = 1..60, under
    the Gershgorin interval [lo, hi]: a level at E then starts in a cell
    about E - lo wide, not hi - lo.

    _seeds (internal to oracle_levels): the n levels of the same model on
    the grid of twice T's step.  Level E of that grid sits below or above
    T's by 3/4 of its O(h^2) error, (E - lo)^2 u h^2 / 16 for a free
    particle (0.07-1.1 times that on the five figure presets), so the
    first pass instead counts at the ends of and inside each bracket
    seed +- (E - lo)^2 / -T.offdiag[0], 4x as wide on either side (the
    grid's u (h/2)^2 is -1 / offdiag).  A level its seed's bracket misses
    goes on from whichever counted cell holds it (see _multisect).
    """
    if n < 1 or n > T.size:
        raise ValueError(f"need 1 <= n <= {T.size}, got {n}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = _gershgorin(T)
    if _seeds is None:
        ladder = lo + (hi - lo) * np.exp2(-np.arange(_LADDER_RUNGS, 0, -1.0))
        return _multisect(T, n, tol, ladder)
    seeds = np.array(_seeds, dtype=np.float64)
    if seeds.shape != (n,):
        raise ValueError(f"need {n} seeds, got {seeds.size}")
    width = np.maximum((seeds - lo) ** 2 / -T.offdiag[0], tol)
    # each bracket's two ends and its share of the budget inside
    inside = max(_MIN_PROBES, _SHIFT_BUDGET // n - 2)
    steps = np.arange(inside + 2) / (inside + 1)
    brackets = (seeds - width)[:, None] + (2.0 * width)[:, None] * steps
    return _multisect(T, n, tol, brackets.ravel())


def _gershgorin(T: TridiagonalHamiltonian) -> tuple[float, float]:
    """(lo, hi) with no eigenvalue below lo and every one strictly below hi."""
    d = T.diag
    e = np.abs(T.offdiag)
    radius = np.zeros_like(d)
    radius[:-1] += e
    radius[1:] += e
    lo = float(np.min(d - radius))
    hi = float(np.max(d + radius))
    return lo, hi + max(1.0, abs(hi)) * 1e-12  # strict count must include the top


def _multisect(
    T: TridiagonalHamiltonian, n: int, tol: float, shifts: np.ndarray
) -> list[float]:
    """Midpoints of the cells, each of width <= tol, that hold levels
    j < n; the first pass counts at the given shifts.

    Every count goes into one sorted map of (shift, N), which starts as
    the Gershgorin ends with N(lo) = 0 and N(hi) = T.size.  Level j lies
    in the cell that ends at the first shift counting it in, N > j.  Each
    later pass makes one count over _SHIFT_BUDGET shifts, shared evenly
    among the distinct cells still wider than tol, at least _MIN_PROBES
    each, spaced evenly inside each cell; levels that share a cell share
    its probes.

    Raises:
        NonConvergenceError: a cell is still open after _MAX_PASSES
            passes; names the grid size and the first open level's cell.
    """
    ends = np.array(_gershgorin(T))
    counts = np.array([0, T.size])
    levels = np.arange(n)
    for _ in range(_MAX_PASSES):
        ends = np.concatenate((ends, shifts))
        order = np.argsort(ends, kind="stable")
        ends = ends[order]
        counts = np.concatenate((counts, _kernels.sturm_counts(T.diag, T.offdiag, shifts)))[order]
        # level j's cell [ends[end[j] - 1], ends[end[j]]] ends at the
        # first shift that counts it in
        end = np.searchsorted(counts, levels, side="right")
        wide = end[ends[end] - ends[end - 1] > tol]
        # end is ascending, so a new cell starts wherever it steps
        cells = wide[np.diff(wide, prepend=0) > 0]
        if not cells.size:
            return (0.5 * (ends[end - 1] + ends[end])).tolist()
        probes = max(_MIN_PROBES, _SHIFT_BUDGET // cells.size)
        lo, hi = ends[cells - 1], ends[cells]
        steps = np.arange(1, probes + 1) / (probes + 1)
        shifts = (lo[:, None] + (hi - lo)[:, None] * steps).ravel()
    j = int(np.searchsorted(end, cells[0]))
    raise NonConvergenceError(
        f"multisection: level {j} still open in "
        f"[{float(ends[cells[0] - 1])!r}, {float(ends[cells[0]])!r}] eV (tol={tol!r}) "
        f"after {_MAX_PASSES} passes on a {T.size}-point grid"
    )


def oracle_levels(
    model: ModelParams,
    units: UnitsConfig,
    n: int,
    cfg: OracleConfig,
    e_top: float | None = None,
) -> list[float]:
    """First n eigenvalues from the finite-difference oracle.

    With cfg.richardson, combines single-grid solutions at h and h/2 as
    (4 E(h/2) - E(h))/3, cancelling the O(h^2) term.  Harmonic domains are
    sized from e_top (1.5x the highest analytic level when the caller has
    one); if the solved levels reach past the sizing energy, the domain is
    grown and the solve repeated.

    Raises:
        ConfigError: the grid has fewer interior points than n.
        NonConvergenceError: the multisection, or the domain sizing after
            5 domains, failed; the message starts with the model's repr
            and names the stage and the bracket or domain.
    """
    box_model = model.walls is not None
    sizing = e_top if e_top is not None else model.level_window(units, n)
    for _ in range(5):
        spec = _grid_spec(model, units, cfg, sizing)
        if n > spec.n_interior:
            raise ConfigError(
                f"cannot resolve {n} levels on an oracle grid of {spec.n_interior} "
                f"interior points; raise the oracle's n_points (--oracle-points) above {n}"
            )
        try:
            coarse = lowest_eigenvalues(_assemble(model, units, spec), n, _LEVEL_TOL)
            if cfg.richardson:
                fine_grid = _assemble(model, units, spec.refined())
                fine = lowest_eigenvalues(fine_grid, n, _LEVEL_TOL, _seeds=coarse)
                levels = [(4.0 * f - c) / 3.0 for c, f in zip(coarse, fine)]
            else:
                levels = coarse
        except NonConvergenceError as exc:
            raise NonConvergenceError(f"{model!r}: {exc}") from exc
        if box_model or levels[-1] * 1.5 <= sizing * (1.0 + _SIZING_SLACK):
            return levels
        top, sizing = levels[-1], levels[-1] * 2.0
    raise NonConvergenceError(
        f"{model!r}: domain sizing: the top level {top!r} eV still passed 2/3 of the sizing "
        f"energy after 5 domains, the last x in [{spec.x_min!r}, {spec.x_max!r}]"
    )


def _shooting_segments(
    model: ModelParams, units: UnitsConfig, cfg: OracleConfig, energy: float
) -> list[tuple[float, float, int]]:
    x_lo, x_hi = model.domain(max(3.0 * energy, model.level_window(units, 1)), units)
    cuts = [x_lo] + [b for b in model.breakpoints if x_lo < b < x_hi] + [x_hi]
    # 6x the matrix resolution: the two-sided mismatch is amplified through
    # the forbidden tails, making shooting the most step-sensitive consumer
    # of the grid (error falls as h^4).
    h_target = (x_hi - x_lo) / (6 * cfg.resolve_points(model))
    return [
        (s, e, max(4, round((e - s) / h_target))) for s, e in zip(cuts[:-1], cuts[1:])
    ]


def _segment_v_half(
    model: ModelParams, units: UnitsConfig, s: float, e: float, m: int
) -> np.ndarray:
    x = s + (e - s) / (2 * m) * np.arange(2 * m + 1)
    # One-sided limits at the span ends: sample just inside so step models
    # see the correct branch at their edges.
    x[0] = s + 1e-9 * (e - s)
    x[-1] = e - 1e-9 * (e - s)
    return model.potential(units, x)


def _shoot(
    model: ModelParams,
    units: UnitsConfig,
    segments: list[tuple[float, float, int]],
    v_halves: list[np.ndarray],
    energy: float,
    from_left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    total = sum(m for _, _, m in segments) + 1
    psi = np.empty(total)
    dpsi = np.empty(total)
    offsets = np.concatenate([[0], np.cumsum([m for _, _, m in segments])])
    v0 = model.delta_strength or 0.0
    u = units.u

    # way = +1 integrates rightward from the left wall, -1 leftward from the
    # right wall over reversed samples; the kernel returns integration order.
    way = 1 if from_left else -1
    y1, y2 = 0.0, float(way)
    for k in range(len(segments))[::way]:
        s, e, m = segments[k]
        h_seg = (e - s) / m
        p, d = _kernels.integrate_schrodinger(v_halves[k][::way], way * h_seg, u, energy, y1, y2)
        y1, y2 = float(p[-1]), float(d[-1])
        if v0 != 0.0 and (e if from_left else s) == 0.0:
            y2 += way * u * v0 * y1  # derivative jump across the delta at 0
        # A shared node keeps its left span's values: at the delta node that
        # is the 0- derivative, whichever way the solution runs.
        skip = 1 if k else 0
        lo = int(offsets[k])
        psi[lo + skip : lo + m + 1] = p[::way][skip:]
        dpsi[lo + skip : lo + m + 1] = d[::way][skip:]
    return psi, dpsi


def wronskian_constancy(
    model: ModelParams,
    units: UnitsConfig,
    energy: float,
    cfg: OracleConfig,
) -> float:
    """Two-sided shooting residual at the given energy.

    Integrates one solution from each wall (fourth-order one-step scheme,
    spans split at potential steps, the delta derivative jump applied at
    its junction) and returns the max over interior nodes of
    |W| / max(|psi_L psi_R'|, |psi_R psi_L'|, floor) with
    W = psi_L psi_R' - psi_R psi_L'.  Near 0 at an eigenvalue (the two
    solutions are proportional), O(1) away from one.

    Raises:
        DomainError: energy is NaN or infinite; its residual would be NaN,
            which passes every threshold comparison.
    """
    if not math.isfinite(energy):
        raise DomainError(f"{model.kind} shooting check needs a finite energy, got {energy!r}")
    segments = _shooting_segments(model, units, cfg, energy)
    # both directions integrate over the same samples
    v_halves = [_segment_v_half(model, units, s, e, m) for s, e, m in segments]
    psi_l, dpsi_l = _shoot(model, units, segments, v_halves, energy, True)
    psi_r, dpsi_r = _shoot(model, units, segments, v_halves, energy, False)
    del v_halves  # the residual below makes four more arrays of the grid's length
    cross_lr = (psi_l * dpsi_r)[1:-1]
    cross_rl = (psi_r * dpsi_l)[1:-1]
    wronskian = np.abs(cross_lr - cross_rl)
    scale = np.maximum(np.abs(cross_lr), np.abs(cross_rl))
    # The floor keeps nodes where both products vanish together (zeros of
    # psi or psi' of two proportional solutions) from dominating the max.
    floor = 1e-6 * float(np.max(scale))
    if floor == 0.0:
        return 1.0
    return float(np.max(wronskian / np.maximum(scale, floor)))
