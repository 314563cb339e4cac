"""Bracket scanning, root refinement, and level solving."""

import dataclasses
import math
import random

import numpy as np
import pytest

import reference_oracles
from dwcross.cli import PRESETS
from dwcross.errors import CountMismatchError, NonConvergenceError
from dwcross.models import (
    VARIANTS,
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    UnitsConfig,
    characteristic_fn,
)
from dwcross.rootfind import Bracket, RootfindConfig, refine_root, scan_brackets, solve_levels

U1 = UnitsConfig(1.0)


def values_fn(model, units=U1):
    """The array form of the model's characteristic function."""
    return lambda e: model.char_values(e, units)


def sin_sqrt(e):
    # sin(pi sqrt(E)) vanishes at E = 1, 4, 9
    return np.sin(np.pi * np.sqrt(e))


class TestConfig:
    def test_window_ordering(self):
        with pytest.raises(ValueError):
            RootfindConfig(e_min=2.0, e_max=1.0)

    @pytest.mark.parametrize("e_min", [0.0, -1.0])
    def test_positive_e_min(self, e_min):
        with pytest.raises(ValueError, match="e_min must be positive"):
            RootfindConfig(e_min=e_min)

    def test_minimum_steps(self):
        with pytest.raises(ValueError):
            RootfindConfig(coarse_steps=32)

    def test_positive_tolerance(self):
        with pytest.raises(ValueError):
            RootfindConfig(tol_abs=0.0)


class TestScanBrackets:
    def test_known_zeros_of_sin_sqrt(self):
        f = sin_sqrt
        cfg = RootfindConfig(e_min=0.5, e_max=9.5, coarse_steps=64)
        brackets = scan_brackets(f, cfg)
        assert len(brackets) == 3
        for b, root in zip(brackets, (1.0, 4.0, 9.0)):
            assert b.lo < root < b.hi
            assert b.f_lo * b.f_hi < 0

    def test_brackets_sorted_and_disjoint(self):
        f = sin_sqrt
        cfg = RootfindConfig(e_min=0.5, e_max=9.5, coarse_steps=64)
        brackets = scan_brackets(f, cfg)
        for left, right in zip(brackets[:-1], brackets[1:]):
            assert left.hi <= right.lo

    def test_subgrid_doublet_resolved(self):
        # two roots 0.062 apart inside one 0.25-wide coarse cell: a
        # near-crossing tunneling pair of the rectangular double well
        m = M2Params(10.0, 2.0, 1.0, 3.3553)
        f = characteristic_fn(m, U1)
        cfg = RootfindConfig(e_min=1e-9, e_max=16.0, coarse_steps=64)
        brackets = scan_brackets(values_fn(m), cfg, expected_count=5)
        assert len(brackets) == 5
        pair = [b for b in brackets if 5.0 < b.lo < 5.6]
        assert len(pair) == 2
        roots = sorted(refine_root(f, b, cfg) for b in pair)
        assert roots[0] == pytest.approx(5.34486, abs=1e-3)
        assert roots[1] == pytest.approx(5.40655, abs=1e-3)
        # both inside what was a single coarse cell
        assert roots[1] - roots[0] < (16.0 / 64)

    def test_subgrid_doublet_found_without_count_hint(self):
        # the scale-free dip rule alone must separate the pair
        m = M2Params(10.0, 2.0, 1.0, 2.0003)
        f = characteristic_fn(m, U1)
        cfg = RootfindConfig(e_min=1e-9, e_max=16.0, coarse_steps=64)
        brackets = scan_brackets(values_fn(m), cfg)
        assert len(brackets) == 3
        roots = [refine_root(f, b, cfg) for b in brackets]
        assert roots[0] == pytest.approx(5.33282, abs=1e-3)
        assert roots[1] == pytest.approx(5.41844, abs=1e-3)
        assert roots[2] == pytest.approx(12.04674, abs=1e-3)

    def test_count_mismatch_error(self):
        f = sin_sqrt
        cfg = RootfindConfig(e_min=0.5, e_max=9.5, coarse_steps=64, max_subdivision_depth=4)
        with pytest.raises(CountMismatchError):
            scan_brackets(f, cfg, expected_count=7)

    def test_expected_count_from_oracle_sturm(self):
        # the expected count comes straight from the independent
        # finite-difference Sturm count at the window top
        from dwcross.oracle import OracleConfig, build_hamiltonian, sturm_count

        m = M1Params(10.0, 2.0, 2.0)
        T = build_hamiltonian(m, U1, OracleConfig(n_points=2000))
        expected = sturm_count(T, 12.0)
        assert expected == 4
        cfg = RootfindConfig(e_min=1e-9, e_max=12.0, coarse_steps=128)
        brackets = scan_brackets(values_fn(m), cfg, expected_count=expected)
        assert len(brackets) == expected

    def test_requires_e_max(self):
        with pytest.raises(ValueError):
            scan_brackets(lambda e: e, RootfindConfig())

    def test_exact_grid_zero_handled(self):
        # a root exactly on a scan node must still produce one bracket
        f = lambda e: e - 5.0  # noqa: E731
        cfg = RootfindConfig(e_min=2.5, e_max=7.5, coarse_steps=80)
        assert 5.0 in np.linspace(cfg.e_min, cfg.e_max, cfg.coarse_steps + 1)
        brackets = scan_brackets(f, cfg)
        assert len(brackets) == 1
        lo, hi, f_lo, f_hi = brackets[0]
        assert lo <= 5.0 <= hi
        # the node moves off the root with its value: both ends hold F
        assert (f_lo, f_hi) == (f(lo), f(hi))

    def test_non_finite_value_raises(self):
        # a NaN never counts as a sign change, so it could hide a root
        def f(e):
            return np.where(e > 5.3, np.nan, sin_sqrt(e))

        cfg = RootfindConfig(e_min=0.5, e_max=9.5, coarse_steps=64)
        message = r"not finite at E=5\.421875 in the scan window \[0\.5, 9\.5\]"
        with pytest.raises(NonConvergenceError, match=message):
            scan_brackets(f, cfg)

    def test_evaluations_in_bounded_blocks(self):
        # the widest window solve_levels builds (16384 cells) is evaluated
        # in blocks of at most 2048 energies
        sizes = []

        def f(e):
            sizes.append(e.size)
            return sin_sqrt(e)

        cfg = RootfindConfig(e_min=0.5, e_max=9.5, coarse_steps=16384)
        assert len(scan_brackets(f, cfg)) == 3
        assert sum(sizes) >= 16385 and max(sizes) <= 2048

    def test_brackets_are_python_floats(self):
        m = M2Params(10.0, 2.0, 1.0, 3.0)
        cfg = RootfindConfig(e_min=1e-9, e_max=16.0, coarse_steps=64)
        for b in scan_brackets(values_fn(m), cfg):
            assert all(type(v) is float for v in b)
        assert all(type(e) is float for e in solve_levels(m, U1, 3))


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
    # the array scan must bracket on exactly the nodes the one-call-per-node
    # scan chose, with the same values where F is computed the same way
    cfg = RootfindConfig(e_max=model.level_window(units, n))
    got = scan_brackets(values_fn(model, units), cfg)
    want = reference_oracles.scan_brackets(characteristic_fn(model, units), cfg)
    assert [(b.lo, b.hi) for b in got] == [(b.lo, b.hi) for b in want]
    if model.kind == "m1":
        assert got == want


class TestRefineRoot:
    def test_linear(self):
        f = lambda e: e - 2.0  # noqa: E731
        cfg = RootfindConfig(e_max=10.0)
        root = refine_root(f, Bracket(1.0, 3.0, f(1.0), f(3.0)), cfg)
        assert root == pytest.approx(2.0, abs=cfg.tol_abs)

    def test_idempotent_under_rerefinement(self):
        f = lambda e: math.cos(4.0 * math.sqrt(e)) * math.sqrt(e) - 0.1  # noqa: E731
        cfg = RootfindConfig(e_max=10.0)
        root = refine_root(f, Bracket(0.02, 0.1, f(0.02), f(0.1)), cfg)
        tiny = 10.0 * cfg.tol_abs
        again = refine_root(f, Bracket(root - tiny, root + tiny, f(root - tiny), f(root + tiny)), cfg)
        assert again == pytest.approx(root, abs=2.0 * cfg.tol_abs)

    def test_ground_state_closed_form(self):
        m = M1Params(0.0, 2.0, 2.0)
        f = characteristic_fn(m, U1)
        cfg = RootfindConfig(e_max=2.0)
        root = refine_root(f, Bracket(0.5, 0.7, f(0.5), f(0.7)), cfg)
        assert root == pytest.approx((math.pi / 4.0) ** 2, abs=1e-10)

    def test_invalid_bracket_rejected(self):
        cfg = RootfindConfig(e_max=2.0)
        with pytest.raises(ValueError):
            refine_root(lambda e: e, Bracket(1.0, 2.0, 1.0, 2.0), cfg)

    def test_scaling_invariance(self):
        # a fixed positive prefactor must not move any refined root
        m = M2Params(10.0, 2.0, 1.0, 3.0)
        f = characteristic_fn(m, U1)
        g = lambda e: 1000.0 * f(e)  # noqa: E731
        f_values = values_fn(m)
        g_values = lambda e: 1000.0 * f_values(e)  # noqa: E731
        cfg = RootfindConfig(e_min=1e-9, e_max=16.0, coarse_steps=256)
        roots_f = [refine_root(f, b, cfg) for b in scan_brackets(f_values, cfg)]
        roots_g = [refine_root(g, b, cfg) for b in scan_brackets(g_values, cfg)]
        assert roots_f == roots_g  # bitwise: refinement uses only f-ratios


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

    def test_window_auto_expansion(self):
        # deliberately tiny initial window: solver must grow it
        cfg = RootfindConfig(e_max=1.5)
        levels = solve_levels(M3Params(0.0, 2.0, 2.0), U1, 4, cfg)
        assert np.allclose(levels, [1.0, 3.0, 5.0, 7.0], atol=1e-8)

    def test_determinism(self):
        m = M2Params(10.0, 2.0, 1.0, 3.3553)
        a = solve_levels(m, U1, 5)
        b = solve_levels(m, U1, 5)
        assert a == b

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            solve_levels(M1Params(0.0, 1.0, 1.0), U1, 0)

    def test_cap_raises(self):
        # a well so narrow that 3 levels exceed the expansion cap
        with pytest.raises(NonConvergenceError):
            solve_levels(M1Params(0.0, 0.02, 0.02), U1, 3, RootfindConfig(e_max=5.0))
