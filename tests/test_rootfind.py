"""Count-driven level isolation, root refinement, and level solving."""

import dataclasses
import math
import random

import numpy as np
import pytest

import reference_oracles
from dwcross import rootfind
from dwcross.cli import _GATE_TOLERANCE, PRESETS
from dwcross.errors import NonConvergenceError
from dwcross.models import (
    VARIANTS,
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    UnitsConfig,
    characteristic_fn,
)
from dwcross.rootfind import (
    Bracket,
    RootfindConfig,
    refine_levels,
    refine_root,
    refine_rows,
    scan_brackets,
    solve_levels,
)

U1 = UnitsConfig(1.0)


def values_fn(model, units=U1):
    """The counted array form of the model's characteristic function."""
    return lambda e: model.char_values(e, units)


def scan_one(f, cfg, n, top, first=0):
    """scan_brackets on one row, [cfg.e_min, top] on: f maps energies to
    (F, N) there.  The caller's window top is left as it was."""
    tops = np.array([top])
    [levels] = scan_brackets(lambda e, rows: f(e), cfg, n, np.array([first]), tops)
    assert tops[0] == top
    return levels


def _no_f(*args):
    raise AssertionError("F evaluated")


def sin_sqrt(e):
    # sin(pi sqrt(E)) vanishes at E = 1, 4, 9; floor(sqrt(E)) counts them
    return np.sin(np.pi * np.sqrt(e)), np.floor(np.sqrt(e))


def unsplit_wide(e):
    # F never changes sign, one level above 5.04, and a count of 2 near
    # 5.0390625 that lies outside the end counts of any cell around it
    return np.ones_like(e), 1.0 * (e > 5.04) + 2.0 * (np.abs(e - 5.0390625) < 1e-3)


class TestConfig:
    @pytest.mark.parametrize("e_min", [0.0, -1.0])
    def test_positive_e_min(self, e_min):
        with pytest.raises(ValueError, match="e_min must be positive"):
            RootfindConfig(e_min=e_min)

    def test_positive_tolerance(self):
        with pytest.raises(ValueError):
            RootfindConfig(tol_abs=0.0)

    def test_finite_tolerance(self):
        with pytest.raises(ValueError, match="tol_abs must be finite"):
            RootfindConfig(tol_abs=float("nan"))


class TestScanBrackets:
    def test_known_zeros_of_sin_sqrt(self):
        f = sin_sqrt
        cfg = RootfindConfig(e_min=0.5)
        brackets = scan_one(f, cfg, 3, 9.5)
        assert len(brackets) == 3
        for (lo, hi, f_lo, f_hi), root in zip(brackets.tolist(), (1.0, 4.0, 9.0)):
            assert lo < root < hi
            assert f_lo * f_hi < 0
        # count indices start above e_min: first=1 skips the level at 1
        [(lo, hi, _, _)] = scan_one(f, cfg, 1, 9.5, first=1).tolist()
        assert lo < 4.0 < hi

    def test_brackets_sorted_and_disjoint(self):
        f = sin_sqrt
        cfg = RootfindConfig(e_min=0.5)
        brackets = scan_one(f, cfg, 3, 9.5).tolist()
        for left, right in zip(brackets[:-1], brackets[1:]):
            assert left[1] <= right[0]

    def test_subgrid_doublet_resolved(self):
        # two roots 0.062 apart inside one 0.25-wide grid cell (5 levels,
        # 32 cells each, over 40 eV): a near-crossing tunneling pair of the
        # rectangular double well
        m = M2Params(10.0, 2.0, 1.0, 3.3553)
        f = characteristic_fn(m, U1)
        cfg = RootfindConfig(e_min=1e-9)
        brackets = scan_one(values_fn(m), cfg, 5, 40.0)
        assert len(brackets) == 5
        pair = [Bracket(*b) for b in brackets.tolist() if 5.0 < b[0] < 5.6]
        assert len(pair) == 2
        roots = sorted(refine_root(f, b, cfg) for b in pair)
        assert roots[0] == pytest.approx(5.34486, abs=1e-3)
        assert roots[1] == pytest.approx(5.40655, abs=1e-3)
        # both inside what was a single grid cell
        assert roots[1] - roots[0] < (40.0 / (5 * rootfind._CELLS_PER_LEVEL))

    def test_subgrid_doublet_found_without_count_hint(self):
        # the model's own count must split the pair that shares one
        # 0.25-wide grid cell (3 levels, 32 cells each, over 24 eV)
        m = M2Params(10.0, 2.0, 1.0, 2.0003)
        f = characteristic_fn(m, U1)
        cfg = RootfindConfig(e_min=1e-9)
        brackets = scan_one(values_fn(m), cfg, 3, 24.0)
        assert len(brackets) == 3
        roots = [refine_root(f, b, cfg) for b in brackets]
        assert roots[0] == pytest.approx(5.33282, abs=1e-3)
        assert roots[1] == pytest.approx(5.41844, abs=1e-3)
        assert roots[2] == pytest.approx(12.04674, abs=1e-3)

    def test_expected_count_from_oracle_sturm(self):
        # the scan finds as many brackets below the window top as the
        # independent finite-difference Sturm count there, and no more
        from dwcross.oracle import OracleConfig, build_hamiltonian

        m = M1Params(10.0, 2.0, 2.0)
        T = build_hamiltonian(m, U1, OracleConfig(n_points=2000))
        expected = reference_oracles.sturm_count(T, 12.0)
        assert expected == 4
        cfg = RootfindConfig(e_min=1e-9)
        brackets = scan_one(values_fn(m), cfg, expected, 12.0)
        assert len(brackets) == expected
        assert all(hi <= 12.0 for _, hi, _, _ in brackets.tolist())
        *_, extra = scan_one(values_fn(m), cfg, expected + 1, 12.0).tolist()
        assert refine_root(characteristic_fn(m, U1), Bracket(*extra), cfg) > 12.0

    def test_exact_grid_zero_handled(self):
        # a root exactly on a scan node must still produce one bracket
        f = lambda e: (e - 5.0, 1.0 * (e > 5.0))  # noqa: E731
        cfg = RootfindConfig(e_min=2.5)
        assert 5.0 in np.linspace(cfg.e_min, 7.5, rootfind._CELLS_PER_LEVEL + 1)
        brackets = scan_one(f, cfg, 1, 7.5)
        assert len(brackets) == 1
        lo, hi, f_lo, f_hi = brackets[0]
        assert lo <= 5.0 <= hi
        # a zero end brackets the root, and both ends hold F
        assert (f_lo, f_hi) == (lo - 5.0, hi - 5.0)
        assert refine_root(lambda e: e - 5.0, brackets[0], cfg) == 5.0

    def test_non_finite_value_raises(self):
        # a NaN never counts as a sign change, so it could hide a root
        def f(e):
            values, counts = sin_sqrt(e)
            return np.where(e > 5.3, np.nan, values), counts

        cfg = RootfindConfig(e_min=0.5)
        message = r"^scan: F is not finite at E=5\.421875 in the window \[0\.5, 9\.5\] eV$"
        with pytest.raises(NonConvergenceError, match=message):
            scan_one(f, cfg, 2, 9.5)

    def test_falling_count_raises(self):
        def f(e):
            values, counts = sin_sqrt(e)
            return values, np.where(e > 5.3, 0.0, counts)

        # the count falls on 5.3: above the last wanted level (at 1 or 4),
        # in a cell never halved, or below the wanted level at 9, where the
        # end counts would grow the window
        cfg = RootfindConfig(e_min=0.5)
        for n, top in ((1, r"5\.5625"), (2, r"5\.421875"), (3, r"5\.375")):
            message = (
                rf"^count: N = 2 at E=5\.28125 and 0 at E={top} is not one level per sign "
                r"change of F in the window \[0\.5, 9\.5\] eV$"
            )
            with pytest.raises(NonConvergenceError, match=message):
                scan_one(f, cfg, n, 9.5)

    def test_unsplit_wide_cell_raises(self):
        # the count puts one level in the cell [5.0, 5.078125] where F keeps
        # its sign, and its midpoint counts more than the cell's top: the
        # untrusted midpoint stops the splitting of that cell
        def f(e):
            return np.ones_like(e), 1.0 * (e > 5.04) + 2.0 * (np.abs(e - 5.0390625) < 1e-3)

        cfg = RootfindConfig(e_min=2.5)
        message = r"^count: N = 0 at E=5\.0 and 1 at E=5\.078125 is not one level per sign change"
        with pytest.raises(NonConvergenceError, match=message):
            scan_one(f, cfg, 1, 7.5)

    def test_window_count_check_precedes_halving(self):
        # row 0 is test_unsplit_wide_cell_raises' F, whose round-2 midpoint
        # is counted outside its cell; row 1's count falls to 0 above 5.3,
        # which the window search finds before any halving: row 1 is named
        def f(e, rows):
            values, counts = sin_sqrt(e)
            falling = values, np.where(e > 5.3, 0.0, counts)
            return np.where(rows == 0, unsplit_wide(e), falling)

        message = (
            r"^count: N = 2 at E=5\.15625 and 0 at E=5\.3125 is not one level per sign "
            r"change of F in the window \[2\.5, 7\.5\] eV$"
        )
        with pytest.raises(NonConvergenceError, match=message) as info:
            scan_brackets(f, RootfindConfig(e_min=2.5), 1, np.zeros(2), np.full(2, 7.5))
        assert info.value.row == 1

    def test_untrusted_midpoint_fails_its_own_round(self):
        # row 0 hides two levels at 5.0 where F keeps its sign, and F is NaN
        # at its round-3 midpoint 5.01953125; row 1's round-2 midpoint is
        # counted outside its cell, which fails round 2: row 1 is named
        def f(e, rows):
            hidden = np.where(np.abs(e - 5.01953125) < 1e-6, np.nan, (e - 5.0) ** 2 + 1.0)
            return np.where(rows == 0, (hidden, 2.0 * (e > 5.0)), unsplit_wide(e))

        message = r"^count: N = 0 at E=5\.0 and 1 at E=5\.078125 is not one level per sign change"
        with pytest.raises(NonConvergenceError, match=message) as info:
            scan_brackets(f, RootfindConfig(e_min=2.5), 1, np.zeros(2), np.full(2, 7.5))
        assert info.value.row == 1

    def test_unresolved_doublet_at_midpoint(self):
        # a count that rises by two at a point where F only touches zero:
        # both levels come back as zero-width brackets at the midpoint of
        # the narrowest cell, with F 0 at both ends
        def f(e):
            return (e - 5.0) ** 2 + 1.0, 2.0 * (e > 5.0)

        for tol_abs in (1e-10, 1e-3):
            cfg = RootfindConfig(e_min=2.5, tol_abs=tol_abs)
            levels = scan_one(f, cfg, 2, 7.5)
            assert len(levels) == 2 and levels[0].tolist() == levels[1].tolist()
            mid = levels[0][0].item()
            assert levels[0].tolist() == [mid, mid, 0.0, 0.0]
            assert abs(mid - 5.0) <= cfg.tol_abs
            # refined on the scalar F, each is the midpoint as a Python float
            roots = refine_levels(_no_f, levels, cfg)
            assert roots == [mid, mid] and all(type(e) is float for e in roots)

    def test_evaluations_in_bounded_blocks(self):
        # many wanted levels make a wide grid (512 levels, 16384 cells),
        # which is evaluated in blocks of at most 2048 energies
        sizes = []

        def f(e):
            # sin(pi E) vanishes at E = 1, 2, ...; floor(E) counts them
            sizes.append(e.size)
            return np.sin(np.pi * e), np.floor(e)

        cfg = RootfindConfig(e_min=0.5)
        assert len(scan_one(f, cfg, 512, 512.5)) == 512
        assert sum(sizes) >= 16385 and max(sizes) <= 2048

    def test_brackets_are_python_floats(self):
        # the scan hands on float64; refinement on the scalar F steps on
        # Python floats, and the solved levels are Python floats
        m = M2Params(10.0, 2.0, 1.0, 3.0)
        cfg = RootfindConfig(e_min=1e-9)
        levels = scan_one(values_fn(m), cfg, 5, 16.0)
        assert levels.dtype == np.float64
        scalar_f, seen = characteristic_fn(m, U1), []

        def spy(e):
            seen.append(e)
            return scalar_f(e)

        roots = refine_levels(spy, levels, cfg)
        assert seen and all(type(e) is float for e in seen + roots)
        assert all(type(e) is float for e in solve_levels(m, U1, 3))

    def test_rows_of_levels_in_one_array(self):
        # row r holds a level at 1.3 + r where F changes sign, then a
        # doublet at 6.2 + r that F does not show: one array of brackets,
        # rows in order, each row's levels ascending, the doublet's two
        # levels as (mid, mid, 0, 0)
        def f(e, rows):
            simple, double = 1.3 + rows, 6.2 + rows
            values = (e - simple) * ((e - double) ** 2 + 1.0)
            return values, 1.0 * (e > simple) + 2.0 * (e > double)

        cfg = RootfindConfig(e_min=0.5)
        levels = scan_brackets(f, cfg, 3, np.zeros(3), np.full(3, 9.5))
        assert levels.dtype == np.float64 and levels.shape == (3, 3, 4)
        for r, (simple, *doublet) in enumerate(levels.tolist()):
            lo, hi, f_lo, f_hi = simple
            assert lo < 1.3 + r < hi and f_lo * f_hi < 0.0
            mid = doublet[0][0]
            assert doublet == [[mid, mid, 0.0, 0.0]] * 2
            assert hi < mid and abs(mid - (6.2 + r)) <= cfg.tol_abs


def _scan_cases():
    """The five preset base points, then four fixed-seed random models of
    each variant (1-8 levels, v0 log-uniform in [1, 1e3], some symmetric)."""
    for name, p in PRESETS.items():
        cls = VARIANTS[p["model"]]
        model = cls(*[p[f.name] for f in dataclasses.fields(cls)])
        yield name, model, UnitsConfig(p["u"]), p["levels"]
    rng = random.Random(2015)
    for i in range(16):
        v0 = 10.0 ** rng.uniform(0.0, 3.0)
        symmetric = i % 8 >= 4
        if i % 4 == 0:
            a = rng.uniform(1.0, 4.0)
            model = M1Params(v0, a, a if symmetric else rng.uniform(1.0, 4.0))
        elif i % 4 == 1:
            a = rng.uniform(1.5, 4.0)
            b = rng.uniform(0.2, a - 0.5)
            model = M2Params(v0, a, b, a if symmetric else b + rng.uniform(0.5, 3.0))
        elif i % 4 == 2:
            hw1 = rng.uniform(0.5, 4.0)
            model = M3Params(v0, hw1, hw1 if symmetric else rng.uniform(0.5, 4.0))
        else:
            hw1 = rng.uniform(0.5, 4.0)
            hw2 = hw1 if symmetric else rng.uniform(0.5, 4.0)
            model = M4Params(v0, hw1, hw2, rng.uniform(0.0, 1.5))
        yield f"random{i}", model, U1, rng.randint(1, 8)


SCAN_CASES = list(_scan_cases())


@pytest.mark.parametrize(
    "name,model,units,n", SCAN_CASES, ids=[case[0] for case in SCAN_CASES]
)
def test_array_scan_matches_scalar_reference(name, model, units, n):
    # the levels the array scan isolates match the reference count, one
    # Sturm count of the oracle's matrix per level: each sits where that
    # count steps, at the compare gate's tolerance; and the scan reports
    # as many levels as the model's own count puts in its window, all
    # inside it
    levels = solve_levels(model, units, n)
    tol = _GATE_TOLERANCE[model.kind]
    backing = reference_oracles.sturm_backing(model, units, levels, tol, max(levels[-1], 1.0))
    for j, (below, above) in enumerate(backing, start=1):
        assert below <= j - 1 and above >= j, (j, levels[j - 1], below, above)
    cfg, top = RootfindConfig(), model.level_window(units, n)
    _, counts = model.char_values(np.array([cfg.e_min, top]), units)
    held = int(counts[1] - counts[0])
    scan = scan_one(values_fn(model, units), cfg, held, top)
    assert len(scan) == held >= n
    assert all(hi <= top for _, hi, _, _ in scan.tolist())


# Models on which solve_levels returned wrong levels with exit 0 while
# the scan guessed where close pairs hide, with the oracle's levels.
CLOSE_PAIR_CASES = [
    (M2Params(100.0, 2.0, 1.0, 2.0), [8.13585, 8.13585, 32.2534, 32.2534]),
    (M2Params(1e6, 2.0, 1.0, 2.5), [4.38065, 9.84989, 17.52259, 39.39958]),
    (M4Params(1000.0, 2.0, 2.0, 0.5), [2.92938, 2.92938, 6.89363, 6.89363]),
]


@pytest.mark.parametrize("model,want", CLOSE_PAIR_CASES, ids=["m2-doublets", "m2-opaque", "m4"])
def test_unresolvable_doublets_and_opaque_barrier(model, want):
    got = solve_levels(model, U1, 4)
    tol = _GATE_TOLERANCE[model.kind]
    assert got == pytest.approx(want, abs=tol)
    backing = reference_oracles.sturm_backing(model, U1, got, tol, max(got[-1], 1.0))
    for j, (below, above) in enumerate(backing, start=1):
        assert below <= j - 1 and above >= j


class TestRefineRoot:
    def test_linear(self):
        f = lambda e: e - 2.0  # noqa: E731
        cfg = RootfindConfig()
        root = refine_root(f, Bracket(1.0, 3.0, f(1.0), f(3.0)), cfg)
        assert root == pytest.approx(2.0, abs=cfg.tol_abs)

    def test_idempotent_under_rerefinement(self):
        f = lambda e: math.cos(4.0 * math.sqrt(e)) * math.sqrt(e) - 0.1  # noqa: E731
        cfg = RootfindConfig()
        root = refine_root(f, Bracket(0.02, 0.1, f(0.02), f(0.1)), cfg)
        tiny = 10.0 * cfg.tol_abs
        again = refine_root(f, Bracket(root - tiny, root + tiny, f(root - tiny), f(root + tiny)), cfg)
        assert again == pytest.approx(root, abs=2.0 * cfg.tol_abs)

    def test_ground_state_closed_form(self):
        m = M1Params(0.0, 2.0, 2.0)
        f = characteristic_fn(m, U1)
        cfg = RootfindConfig()
        root = refine_root(f, Bracket(0.5, 0.7, f(0.5), f(0.7)), cfg)
        assert root == pytest.approx((math.pi / 4.0) ** 2, abs=1e-10)

    def test_invalid_bracket_rejected(self):
        cfg = RootfindConfig()
        with pytest.raises(ValueError):
            refine_root(lambda e: e, Bracket(1.0, 2.0, 1.0, 2.0), cfg)

    def test_scaling_invariance(self):
        # a fixed positive prefactor must not move any refined root
        m = M2Params(10.0, 2.0, 1.0, 3.0)
        f = characteristic_fn(m, U1)
        g = lambda e: 1000.0 * f(e)  # noqa: E731
        f_values = values_fn(m)

        def g_values(e):
            values, counts = f_values(e)
            return 1000.0 * values, counts

        cfg = RootfindConfig(e_min=1e-9)
        roots_f = [refine_root(f, b, cfg) for b in scan_one(f_values, cfg, 5, 16.0)]
        roots_g = [refine_root(g, b, cfg) for b in scan_one(g_values, cfg, 5, 16.0)]
        assert roots_f == roots_g  # bitwise: refinement uses only f-ratios


# F of row r, its bracket and its root: each bracket needs a different
# number of steps.
_ROWS = [
    (lambda e: np.expm1(40.0 * (e - 1.3)), 0.5, 2.5, 1.3),  # steep: F(hi) is e^48
    (lambda e: (e - 2.2) ** 3, 1.0, 4.0, 2.2),  # flat: a triple root
    (lambda e: e - 3.0, 3.0, 3.5, 3.0),  # an exact zero at an end
    (lambda e: e - 5.0, 4.0, 6.0, 5.0),  # the first step lands on the root
]


def _rows_fn(calls, offset=0):
    """f(energies, rows) of _ROWS, its rows shifted by offset; records the
    energies of each call."""

    def f(e, rows):
        calls.append(e.size)
        values = np.empty_like(e)
        for r, (g, *_) in enumerate(_ROWS):
            values[rows + offset == r] = g(e[rows + offset == r])
        return values, np.zeros_like(e)

    return f


def _bracket(g, lo, hi):
    return Bracket(lo, hi, float(g(np.float64(lo))), float(g(np.float64(hi))))


def _counted(g, counts):
    """g on Python floats, counting its evaluations in counts[0]."""

    def f(e):
        counts[0] += 1
        return g(e)

    return f


class TestRefineRows:
    def test_each_root_as_refine_root_and_as_alone(self):
        # one rule in two forms: the same root bit for bit, after the same
        # number of evaluations
        # a doublet's zero-width bracket at 0.25 in each row passes through
        levels = np.array([[_bracket(g, lo, hi), (0.25, 0.25, 0.0, 0.0)] for g, lo, hi, _ in _ROWS])
        cfg = RootfindConfig()
        got = refine_rows(_rows_fn([]), levels, cfg).tolist()
        assert all(row[1] == 0.25 for row in got)
        for r, (g, lo, hi, root) in enumerate(_ROWS):
            x = got[r][0]
            evals = [0]
            scalar_g = _counted(lambda e: float(g(np.float64(e))), evals)
            scalar = refine_root(scalar_g, Bracket(*levels[r, 0].tolist()), cfg)
            assert abs(x - root) <= cfg.tol_abs and x == scalar
            calls = []
            assert refine_rows(_rows_fn(calls, r), levels[r : r + 1, :1], cfg).tolist() == [[x]]
            assert sum(calls) == evals[0]
            if r == 2:  # an exact zero at an end costs no evaluation
                assert x == 3.0 and calls == []
            if r == 3:
                assert x == 5.0 and calls == [1]

    @pytest.mark.parametrize(
        "model,n",
        [
            (M2Params(10.0, 2.0, 1.0, 3.0), 6),
            (M3Params(50.0, 1.5, 2.5), 6),
            # four tunnelling doublets, split by 2.7e-8 to 2.9e-7 eV: F is
            # flat between the members of each, yet still brackets both
            (M4Params(60.0, 1.7959721417898837, 1.7959721417898837, 1.1405624060483137), 8),
        ],
        ids=["m2", "m3", "m4-flat"],
    )
    def test_model_brackets_as_refine_root(self, model, n):
        # the rows form on the scalar F, elementwise, gives every root of a
        # model's scan as refine_root does, after as many evaluations
        cfg = RootfindConfig()
        brackets = scan_one(values_fn(model), cfg, n, model.level_window(U1, n))
        assert len(brackets) == n and all(lo < hi for lo, hi, _, _ in brackets.tolist())
        scalar_f = characteristic_fn(model, U1)
        energies = []

        def f(e, rows):
            energies.append(e.size)
            return np.array([scalar_f(x) for x in e.tolist()]), np.zeros_like(e)

        evals = [0]
        counted = _counted(scalar_f, evals)
        scalar = [refine_root(counted, Bracket(*x), cfg) for x in brackets.tolist()]
        assert refine_rows(f, brackets[:, None], cfg).tolist() == [[x] for x in scalar]
        assert sum(energies) == evals[0]

    def test_bisection_bounds_the_rounds(self):
        # a bracket bisects when _STALL_STEPS steps have not halved it, so
        # it halves at least once every _STALL_STEPS + 1 rounds
        levels = np.array([[_bracket(g, lo, hi)] for g, lo, hi, _ in _ROWS])
        cfg = RootfindConfig()
        calls = []
        refine_rows(_rows_fn(calls), levels, cfg)

        def halvings(lo, hi):
            return math.ceil(math.log2((hi - lo) / cfg.tol_abs))

        widest = max(halvings(lo, hi) for lo, hi, _, _ in (row[0] for row in levels))
        assert len(calls) <= (rootfind._STALL_STEPS + 1) * widest
        # every call spans the brackets still open, which only drop out
        assert calls[0] == 3 and calls == sorted(calls, reverse=True)
        # the steep root stalls regula falsi: without the bisections it
        # exceeds the 300-step budget (the Illinois rule's constant 1/2
        # took 94 rounds); with them it takes 26, fewer than bisection alone
        steep = []
        refine_rows(_rows_fn(steep), levels[:1], cfg)
        assert len(steep) < halvings(*levels[0][0][:2])

    def test_budget_and_bad_brackets(self):
        # a triple root near 2e-9 in [1e-9, 1e4] needs about 93 halvings
        # at tol_abs = 1e-300, more than 300 steps allow
        g = lambda e: (e - 2e-9) ** 3  # noqa: E731
        levels = np.array([[(1.0, 1.0, 0.0, 0.0)], [_bracket(g, 1e-9, 1e4)]])
        message = r"^refine: the root on \[1e-09, 10000\.0\] exceeded its iteration budget$"
        with pytest.raises(NonConvergenceError, match=message) as info:
            refine_rows(lambda e, rows: (g(e), e), levels, RootfindConfig(tol_abs=1e-300))
        assert info.value.row == 1
        with pytest.raises(NonConvergenceError, match=message):
            refine_root(g, Bracket(*levels[1, 0].tolist()), RootfindConfig(tol_abs=1e-300))
        # F not finite at the first step, E = 1.5
        message = r"^refine: F is not finite at E=1\.5 in the bracket \[1\.0, 2\.0\] eV$"
        bracket = Bracket(1.0, 2.0, -1.0, 1.0)
        with pytest.raises(NonConvergenceError, match=message):
            nan = lambda e, rows: (np.full_like(e, np.nan), e)  # noqa: E731
            refine_rows(nan, np.array([[bracket]]), RootfindConfig())
        with pytest.raises(NonConvergenceError, match=message):
            refine_root(lambda e: math.nan, bracket, RootfindConfig())
        with pytest.raises(ValueError):
            refine_rows(_rows_fn([]), np.array([[Bracket(1.0, 2.0, 1.0, 2.0)]]), RootfindConfig())

    def test_zero_width_bracket_is_its_point(self):
        # a doublet's level comes back as its point, with no F evaluation
        cfg = RootfindConfig()
        assert refine_root(_no_f, Bracket(5.25, 5.25, 0.0, 0.0), cfg) == 5.25
        levels = np.array([[(5.25, 5.25, 0.0, 0.0)] * 2, [(7.5, 7.5, 0.0, 0.0)] * 2])
        assert refine_rows(_no_f, levels, cfg).tolist() == [[5.25, 5.25], [7.5, 7.5]]


class TestSolveLevels:
    def test_oscillator_levels(self):
        levels = solve_levels(M3Params(0.0, 2.0, 2.0), U1, 5)
        assert np.allclose(levels, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-8)

    def test_strictly_ascending_with_margin(self):
        cfg = RootfindConfig()
        for model in (M1Params(10.0, 2.0, 3.0), M2Params(10.0, 2.0, 1.0, 2.1)):
            levels = solve_levels(model, U1, 6, cfg)
            for lo, hi in zip(levels[:-1], levels[1:]):
                assert hi - lo > 2.0 * cfg.tol_abs

    def test_window_auto_expansion(self, first_top):
        # deliberately tiny initial window: solver must grow it
        model = M3Params(0.0, 2.0, 2.0)
        first_top(model, 1.5)
        levels = solve_levels(model, U1, 4)
        assert np.allclose(levels, [1.0, 3.0, 5.0, 7.0], atol=1e-8)

    @pytest.mark.parametrize(
        "model,first,tops",
        [(M3Params(0.0, 2.0, 2.0), 1.5, 5), (M2Params(100.0, 2.0, 1.0, 2.0), 9.0, 4)],
        ids=["oscillator", "m2-doublets"],
    )
    def test_window_growth_by_the_count(self, monkeypatch, first_top, model, first, tops):
        # each trial top costs one grid of 32 cells per wanted level, and
        # cells are halved only in the final window, at most one cell per
        # wanted level per round, down to tol_abs
        calls = []
        char_values = type(model).char_values

        def counted(self, energies, units):
            calls.append(np.array(energies))
            return char_values(self, energies, units)

        monkeypatch.setattr(type(model), "char_values", counted)
        first_top(model, first)
        cfg = RootfindConfig()
        solve_levels(model, U1, 4, cfg)
        grid = 4 * rootfind._CELLS_PER_LEVEL + 1
        top = first * 1.6 ** (tops - 1)
        assert [c.size for c in calls[:tops]] == [grid] * tops
        assert [c[-1] for c in calls[:tops]] == pytest.approx(first * 1.6 ** np.arange(tops))
        halving = calls[tops:]
        assert all(c.size <= 4 and cfg.e_min < c.min() and c.max() < top for c in halving)
        rounds = math.ceil(math.log2(top / (grid - 1) / cfg.tol_abs))
        assert sum(c.size for c in calls) <= tops * grid + 4 * rounds

    def test_determinism(self):
        m = M2Params(10.0, 2.0, 1.0, 3.3553)
        a = solve_levels(m, U1, 5)
        b = solve_levels(m, U1, 5)
        assert a == b

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            solve_levels(M1Params(0.0, 1.0, 1.0), U1, 0)

    def test_cap_raises(self, first_top):
        # a well so narrow that 64 growths of a 2e-9 eV window (to ~23 158
        # eV) hold only its first level, 6168.5 eV
        model = M1Params(0.0, 0.02, 0.02)
        message = (
            r"^M1Params\(v0=0\.0, a=0\.02, b=0\.02\): window growth: only 1 levels "
            r"in the window \[1e-09, 23158\.4\d*\] eV after 64 growths$"
        )
        first_top(model, 2e-9)
        with pytest.raises(NonConvergenceError, match=message):
            solve_levels(model, U1, 4)

    def test_e_min_above_1e4_ev_gives_levels_above_it(self):
        # the estimated window (~16 eV) is shifted up to start at e_min
        got = solve_levels(M1Params(1.0, 2.0, 2.0), U1, 2, RootfindConfig(e_min=2e4))
        ref = reference_oracles.symmetric_delta_box_levels(1.0, 2.0, 1.0, 200)
        want = [e for e in ref if e > 2e4][:2]
        assert min(got) > 2e4
        for e, w in zip(got, want):
            assert abs(e - w) <= 2.0 * max(1e-10, 4.0 * 2.22e-16 * abs(w))

    def test_window_top_does_not_change_the_levels(self, first_top):
        # levels past 1e4 eV: a first window of 5 eV grows to them, and the
        # model's level_window (~55 517 eV) holds them at once; the two
        # grids differ, so each level is refined from another bracket
        model = M1Params(0.0, 0.02, 0.02)
        levels = solve_levels(model, U1, 3)
        first_top(model, 5.0)
        grown = solve_levels(model, U1, 3)
        for e, g in zip(levels, grown):
            assert abs(e - g) <= 2.0 * max(1e-10, 4.0 * 2.22e-16 * abs(e))
        assert levels == pytest.approx([6168.50275068, 24674.0110027, 55516.5247561], rel=1e-11)

    def test_refine_failure_names_model_and_window(self, monkeypatch):
        def fail(f, bracket, cfg):
            raise NonConvergenceError("refine: budget")

        monkeypatch.setattr(rootfind, "refine_root", fail)
        message = r"^M1Params\(v0=10\.0, a=2\.0, b=3\.0\): refine: budget$"
        with pytest.raises(NonConvergenceError, match=message):
            solve_levels(M1Params(10.0, 2.0, 3.0), U1, 2)


class _NonFinite(M1Params):
    """F is NaN above 5 eV."""

    def char_values(self, energies, units):
        values, counts = super().char_values(energies, units)
        return np.where(energies > 5.0, np.nan, values), counts


class _FallingCount(M1Params):
    """The count drops to 0 above 5 eV."""

    def char_values(self, energies, units):
        values, counts = super().char_values(energies, units)
        return values, np.where(energies > 5.0, 0.0, counts)


class _NarrowStoppedCell(M1Params):
    """A level at 5.1 eV that F does not show, whose count is not trusted
    within 1e-8 eV of it: its cell stops a few 1e-8 eV wide, above the
    halving floor max(tol_abs, 4 eps |E|) but below 1e-6 |E|."""

    def char_values(self, energies, units):
        e = np.asarray(energies)
        return np.ones_like(e), 1.0 * (e > 5.1) + 2.0 * (np.abs(e - 5.1) < 1e-8)


class _UnsplitCell(M1Params):
    """A level F does not show, in a cell whose midpoint is not trusted
    (see TestScanBrackets.test_unsplit_wide_cell_raises)."""

    def char_values(self, energies, units):
        e = np.asarray(energies)
        return np.ones_like(e), 1.0 * (e > 5.04) + 2.0 * (np.abs(e - 5.0390625) < 1e-3)


@pytest.mark.parametrize(
    "cls,stage",
    [(_NonFinite, "scan: F is not finite"), (_FallingCount, r"count: N = \d+ at"),
     (_UnsplitCell, r"count: N = 0 at E=5\.0 and 1 at"),
     (_NarrowStoppedCell, r"count: N = 0 at E=5\.09999997\d* and 1 at E=5\.10000001\d* ")],
)
def test_scan_failures_name_model_stage_and_window(first_top, cls, stage):
    cfg = RootfindConfig(e_min=2.5)
    model = cls(10.0, 2.0, 2.0)
    first_top(model, 7.5)
    message = rf"^_?\w+\(v0=10\.0, a=2\.0, b=2\.0\): {stage}.* in the window \[2\.5, 7\.5\] eV$"
    with pytest.raises(NonConvergenceError, match=message):
        solve_levels(model, U1, 1, cfg)
