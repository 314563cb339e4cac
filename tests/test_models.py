"""Characteristic functions: closed-form zeros, branch joining, symmetry."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwcross.errors import DomainError, ModelMismatchError
from dwcross.models import (
    VARIANTS,
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    UnitsConfig,
    characteristic,
    characteristic_fn,
    model_kind,
)
from dwcross.rootfind import RootfindConfig, solve_levels
from dwcross import models, oracle
from reference_oracles import bisect, pcf_at_zero, symmetric_delta_box_levels

U1 = UnitsConfig(1.0)


class TestParamsValidation:
    def test_m1_rejects_negative_strength(self):
        with pytest.raises(ValueError, match="v0"):
            M1Params(-1.0, 2.0, 2.0)

    def test_m2_requires_a_gt_b(self):
        with pytest.raises(ValueError, match="a > b"):
            M2Params(10.0, 1.0, 2.0, 3.0)

    def test_m2_requires_c_gt_b(self):
        with pytest.raises(ValueError, match="c > b"):
            M2Params(10.0, 3.0, 2.0, 1.5)

    def test_m3_requires_positive_frequencies(self):
        with pytest.raises(ValueError):
            M3Params(1.0, 0.0, 2.0)

    def test_m4_allows_zero_width(self):
        M4Params(5.0, 2.0, 1.0, 0.0)

    def test_m4_rejects_negative_width(self):
        with pytest.raises(ValueError, match="a >= 0"):
            M4Params(10.0, 2.0, 2.0, -1.0)

    def test_units_positive(self):
        with pytest.raises(ValueError):
            UnitsConfig(0.0)

    def test_kind_and_sweep_param(self):
        assert model_kind(M1Params(0.0, 1.0, 1.0)) == "m1"
        assert M2Params(1.0, 2.0, 1.0, 3.0).sweep_param == "c"
        assert M4Params(1.0, 1.0, 1.0, 0.5).sweep_param == "hw2"

    def test_at_validates(self):
        # each variant moves its own sweep parameter and rejects a value
        # outside its valid range
        for model, invalid in (
            (M1Params(10.0, 2.0, 2.0), 0.0),
            (M2Params(10.0, 2.0, 1.0, 3.0), 0.5),
            (M3Params(10.0, 2.0, 2.0), -1.0),
            (M4Params(10.0, 2.0, 2.0, 0.5), 0.0),
        ):
            moved = model.at(4.0)
            assert moved == dataclasses.replace(model, **{model.sweep_param: 4.0})
            with pytest.raises(ValueError, match=model.kind):
                model.at(invalid)


class TestCharM1:
    def test_domain_error(self):
        with pytest.raises(DomainError):
            M1Params(1.0, 1.0, 1.0).char(0.0, U1)
        with pytest.raises(DomainError):
            M1Params(1.0, 1.0, 1.0).char(-1.0, U1)

    def test_free_well_zeros(self):
        # v0 = 0: exact zeros at (n pi / (a+b))^2 / u
        m = M1Params(0.0, 2.0, 2.0)
        for n in (1, 2, 3):
            e = (n * math.pi / 4.0) ** 2
            assert abs(m.char(e, U1)) < 1e-9
        assert abs(m.char(1.3, U1)) > 1e-2  # not a zero away from roots

    def test_value_formula(self):
        m = M1Params(3.0, 1.5, 2.5)
        u = UnitsConfig(0.7)
        e = 1.234
        k = math.sqrt(0.7 * e)
        expected = k * math.sin(4.0 * k) + 0.7 * 3.0 * math.sin(1.5 * k) * math.sin(2.5 * k)
        assert m.char(e, u) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_reduction(self):
        # a = b: root set of F equals the union of the k cot(ka) = -u v0/2
        # sector and the odd levels, computed by an independent bisection
        m = M1Params(10.0, 2.0, 2.0)
        ref = symmetric_delta_box_levels(10.0, 2.0, 1.0, 6)
        got = solve_levels(m, U1, 6)
        assert np.allclose(got, ref, atol=1e-9)


def _barrier_closed_form(w, half_width):
    """C(w) = cosh(2L sqrt(w)) and S(w) = sinh(2L sqrt(w))/sqrt(w), with
    their continuations cos, sin/sqrt(-w) for w < 0 and limits 1, 2L at 0."""
    width = 2.0 * half_width
    if w > 0.0:
        return math.cosh(width * math.sqrt(w)), math.sinh(width * math.sqrt(w)) / math.sqrt(w)
    if w < 0.0:
        return math.cos(width * math.sqrt(-w)), math.sin(width * math.sqrt(-w)) / math.sqrt(-w)
    return 1.0, width


class TestBarrierFactors:
    @pytest.mark.parametrize("half_width", [0.05, 1.0, 3.5])
    def test_closed_forms_at_and_near_the_top(self, half_width):
        # at w = 0 and -0 the factors (p, S, R, K) are exactly (0, 2L, 1, 0);
        # for |z| = |(2L)^2 w| from 1e-15 to 2e-6 on both sides, C = R + p S
        # and S lie within 2 ulp of the closed forms, and the array form
        # within 2 ulp of the scalar form
        width = 2.0 * half_width
        z = np.geomspace(1e-15, 2e-6, 97)
        z = np.concatenate(([0.0, -0.0], z, -z))
        w = z / width**2
        scalar = np.array([models._barrier_factors(x, half_width) for x in w.tolist()])
        p, s, r, k = scalar.T
        closed = np.array([_barrier_closed_form(x, half_width) for x in w.tolist()])
        pair = np.column_stack((r + p * s, s))
        assert (np.abs(pair - closed) <= 2.0 * np.spacing(np.abs(closed))).all()
        assert (k == np.minimum(w, 0.0) * s).all()
        array = np.column_stack(models._barrier_factor_values(w, half_width))
        assert (np.abs(array - scalar) <= 2.0 * np.spacing(np.abs(scalar))).all()
        assert array[:2].tolist() == scalar[:2].tolist() == [[0.0, width, 1.0, 0.0]] * 2

    @pytest.mark.parametrize("half_width", [0.05, 1.0, 3.5])
    def test_common_rescale_past_the_cap(self, half_width):
        # at 2Lp = 400 (S, R) is a positive multiple of (sinh(x)/p, e^-x), x
        # = 2Lp: their logs differ by one shift, to rounding
        w = (400.0 / (2.0 * half_width)) ** 2
        for p, s, r, k in (
            models._barrier_factors(w, half_width),
            [float(v[0]) for v in models._barrier_factor_values(np.array([w]), half_width)],
        ):
            x = 2.0 * half_width * p
            assert p == math.sqrt(w) and k == 0.0 and s > 0.0 and r > 0.0
            shift = math.log(s) - math.log(math.sinh(x) / p)
            assert shift < -40.0
            assert math.log(r) + x == pytest.approx(shift, abs=1e-12)


class TestCharM2:
    def test_value_formula(self):
        # F = k sin(kd) C + [k^2 cos(kd) + u v0 sin(kd1) sin(kd2)] S, below,
        # at and above the barrier top v0 = 9
        m = M2Params(9.0, 2.5, 1.0, 3.2)  # d1 = 1.5, d2 = 2.2
        u = UnitsConfig(0.7)
        for e in (3.1, 9.0, 14.2):
            k = math.sqrt(0.7 * e)
            c, s = _barrier_closed_form(0.7 * (9.0 - e), 1.0)
            expected = k * math.sin(3.7 * k) * c + (
                k * k * math.cos(3.7 * k) + 0.7 * 9.0 * math.sin(1.5 * k) * math.sin(2.2 * k)
            ) * s
            assert m.char(e, u) == pytest.approx(expected, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            M2Params(1.0, 2.0, 1.0, 3.0).char(-0.5, U1)

    def test_thin_barrier_limit(self):
        # b -> 0: zeros approach the single well of width a + c
        m = M2Params(7.0, 2.0, 1e-7, 2.0)
        for n in (1, 2, 3):
            e = (n * math.pi / 4.0) ** 2
            f = characteristic_fn(m, U1)
            root = bisect(f, e - 0.05, e + 0.05)
            assert root == pytest.approx(e, abs=1e-4)

    def test_swap_wells_exact_symmetry(self):
        # exchanging d1 and d2 leaves the value bitwise identical
        u = UnitsConfig(1.3)
        m = M2Params(9.0, 2.5, 1.0, 3.2)  # d1 = 1.5, d2 = 2.2
        swapped = M2Params(9.0, 3.2, 1.0, 2.5)  # d1 = 2.2, d2 = 1.5
        for e in np.linspace(0.1, 25.0, 400):
            assert m.char(float(e), u) == swapped.char(float(e), u)

    def test_continuity_through_barrier_top(self):
        m = M2Params(10.0, 2.0, 1.0, 3.0)
        v0 = m.v0
        f = characteristic_fn(m, U1)
        mid = f(v0)
        assert abs(f(v0 - 1e-6) - f(v0 + 1e-6)) <= 1e-6 * (1.0 + abs(mid))
        # and the three-branch join is smooth on a fine scan
        es = np.linspace(v0 - 1e-3, v0 + 1e-3, 101)
        vals = [f(float(e)) for e in es]
        diffs = np.abs(np.diff(vals))
        assert diffs.max() < 1e-4 * (1.0 + np.abs(vals).max())


class TestCharM3:
    def test_domain_error(self):
        with pytest.raises(DomainError):
            M3Params(1.0, 2.0, 2.0).char(0.0, U1)

    def test_unperturbed_oscillator_zeros(self):
        m = M3Params(0.0, 2.0, 2.0)
        levels = solve_levels(m, U1, 5)
        assert np.allclose(levels, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-9)

    def test_odd_levels_immune_to_delta(self):
        # states with a node at the origin never feel the delta
        m = M3Params(10.0, 2.0, 2.0)
        for e in (3.0, 7.0, 11.0):
            assert m.char(e, U1) == 0.0

    def test_even_levels_shift_up(self):
        m = M3Params(10.0, 2.0, 2.0)
        levels = solve_levels(m, U1, 4)
        assert levels[0] > 1.0 and levels[0] < 3.0
        assert levels[1] == pytest.approx(3.0, abs=1e-9)
        assert levels[2] > 5.0 and levels[2] < 7.0
        assert levels[3] == pytest.approx(7.0, abs=1e-9)

    def test_matches_pcf_route_with_normalizer(self):
        # the pieces' evaluation equals minus the direct D_nu(0) formula
        # divided by each piece's sqrt(D_nu(0)^2 + D'_nu(0)^2 / 2): with
        # D_nu(0) = 2^(nu/2) sqrt(pi) j and D'_nu(0) = -2^((nu+1)/2) sqrt(pi) h,
        # that is the normalizer 2^(-(nu1+nu2)/2)/pi and the pieces' divisor
        # sqrt(h^2 + j^2) (D'_nu(0) carries the sign of -h)
        m = M3Params(4.0, 2.0, 1.3)
        u = UnitsConfig(0.8)
        alpha1, alpha2 = math.sqrt(u.u * m.hw1), math.sqrt(u.u * m.hw2)
        for e in np.linspace(0.3, 18.0, 57):
            nu1, nu2 = e / m.hw1 - 0.5, e / m.hw2 - 0.5
            p1 = pcf_at_zero(nu1)
            p2 = pcf_at_zero(nu2)
            raw = (
                alpha2 * p2.d0_prime * p1.d0
                + alpha1 * p1.d0_prime * p2.d0
                - u.u * m.v0 * p1.d0 * p2.d0
            )
            divisor = math.sqrt(
                (p1.d0**2 + 0.5 * p1.d0_prime**2) * (p2.d0**2 + 0.5 * p2.d0_prime**2)
            )
            expected = raw / divisor
            assert m.char(float(e), u) == pytest.approx(-expected, rel=1e-9, abs=1e-12)

    def test_monotone_in_delta_strength(self):
        # a non-negative perturbation never lowers a level
        grids = [solve_levels(M3Params(v, 2.0, 1.5), U1, 4) for v in (0.0, 2.0, 5.0, 10.0)]
        for weaker, stronger in zip(grids[:-1], grids[1:]):
            for lo, hi in zip(weaker, stronger):
                assert hi >= lo - 1e-10


class TestCharM4:
    def test_value_formula(self):
        # F = [sqrt(2) (alpha1 h1 j2 + alpha2 h2 j1) C + [w j1 j2 + 2 alpha1
        # alpha2 h1 h2] S] / (N1 N2) with h = 1/Gamma(-nu/2),
        # j = 1/Gamma(1/2 - nu/2) and each piece's divisor N = sqrt(h^2 + j^2),
        # below, at and above the barrier top v0 = 6
        m = M4Params(6.0, 2.0, 1.3, 0.4)
        u = UnitsConfig(0.8)
        alpha1, alpha2 = math.sqrt(0.8 * 2.0), math.sqrt(0.8 * 1.3)
        for e in (2.3, 6.0, 9.7):
            nu1, nu2 = e / 2.0 - 0.5, e / 1.3 - 0.5
            h1, h2 = 1.0 / math.gamma(-0.5 * nu1), 1.0 / math.gamma(-0.5 * nu2)
            j1, j2 = 1.0 / math.gamma(0.5 - 0.5 * nu1), 1.0 / math.gamma(0.5 - 0.5 * nu2)
            w = 0.8 * (6.0 - e)
            c, s = _barrier_closed_form(w, 0.4)
            expected = math.sqrt(2.0) * (alpha1 * h1 * j2 + alpha2 * h2 * j1) * c + (
                w * j1 * j2 + 2.0 * alpha1 * alpha2 * h1 * h2
            ) * s
            expected /= math.hypot(h1, j1) * math.hypot(h2, j2)
            assert m.char(e, u) == pytest.approx(expected, rel=1e-13)

    def test_zero_width_barrier_is_pure_oscillator(self):
        # exercises the pole-free form: the ratio form loses the odd levels
        m = M4Params(8.0, 2.0, 2.0, 0.0)
        levels = solve_levels(m, U1, 5)
        assert np.allclose(levels, [1.0, 3.0, 5.0, 7.0, 9.0], atol=1e-9)

    def test_delta_limit_reproduces_m3(self):
        # a -> 0 with 2 a v0 = strength: the barrier becomes a delta spike
        strength = 10.0
        a = 1e-4
        m4 = M4Params(strength / (2.0 * a), 2.0, 1.5, a)
        m3 = M3Params(strength, 2.0, 1.5)
        got = solve_levels(m4, U1, 4)
        want = solve_levels(m3, U1, 4)
        assert np.allclose(got, want, atol=5e-3)

    def test_continuity_through_barrier_top(self):
        # the gamma factors carry an O(1) energy slope here, so the seam is
        # probed with a jump detector (second difference) plus a
        # slope-compensated first difference
        m = M4Params(10.0, 2.0, 2.0, 1.0)
        f = characteristic_fn(m, U1)
        eps = 1e-6
        lo, mid, hi = f(m.v0 - eps), f(m.v0), f(m.v0 + eps)
        assert abs(lo - 2.0 * mid + hi) <= 1e-9 * (1.0 + abs(mid))
        slope = abs(hi - lo) / (2.0 * eps)
        assert abs(hi - lo) <= eps * (1.0 + abs(mid)) + 2.0 * eps * slope

    def test_monotone_in_barrier_height(self):
        grids = [solve_levels(M4Params(v, 2.0, 2.0, 0.7), U1, 4) for v in (0.0, 3.0, 8.0)]
        for weaker, stronger in zip(grids[:-1], grids[1:]):
            for lo, hi in zip(weaker, stronger):
                assert hi >= lo - 1e-10

    def test_symmetric_doublets_straddle_odd_levels(self):
        # at hw1 = hw2 the spectrum forms doublets; the upper member of
        # each sub-barrier doublet stays below the next odd-parity level
        m = M4Params(10.0, 2.0, 2.0, 1.0)
        levels = solve_levels(m, U1, 4)
        assert levels[0] < levels[1] < 3.0
        assert 5.0 < levels[2] < levels[3] < 7.0


def _level_bound(levels, cfg):
    """2 max(tol_abs, 4 eps |E|) per level: the spread two correct solves
    of one level may show."""
    return 2.0 * np.maximum(cfg.tol_abs, 4.0 * np.finfo(float).eps * np.abs(levels))


def _symmetric_opaque_models():
    """Mirror-symmetric m2 (a = c) and m4 (hw1 = hw2) models whose barrier
    exponent width * sqrt(v0) lies in [18, 40], with 2 to 5 levels: their
    low levels come in tunnelling doublets split by up to about 1e-5 eV,
    and at the opaque end by far less than tol_abs."""
    exponent = st.floats(18.0, 40.0)
    m2 = st.builds(
        lambda x, b, d: M2Params((x / (2.0 * b)) ** 2, b + d, b, b + d),
        exponent, st.floats(0.5, 2.0), st.floats(1.0, 3.0),
    )
    m4 = st.builds(
        lambda x, a, hw: M4Params((x / (2.0 * a)) ** 2, hw, hw, a),
        exponent, st.floats(0.5, 1.5), st.floats(0.5, 3.0),
    )
    return st.tuples(st.one_of(m2, m4), st.integers(2, 5))


class TestSymmetricDoublets:
    # 20-digit roots of the even and odd parity conditions of M2Params(v0,
    # a, b, a) at u = 1, from tests/parity_roots.py
    @pytest.mark.parametrize("top", [None, 0.5, 3.0, 30.0, 300.0])
    @pytest.mark.parametrize(
        "model,roots",
        [
            (M2Params(100.0, 3.0, 1.0, 3.0), [
                2.2372028971464528710, 2.2372028993203955183,
                8.9387952925446433121, 8.9387953092259337754,
            ]),
            (M2Params(400.0, 3.0, 1.0, 3.0), [
                2.3483954971828864425, 2.3483954971828864447,
                9.3922192892195675534, 9.3922192892195675657,
            ]),
            (M2Params(52.49141126437775, 3.0717800837688944, 1.7109533681534321,
                      3.0717800837688944), [
                4.3815398826394091082, 4.3815398827908781827,
                17.362993863901063573, 17.362993879852575697,
                38.140527415728539173,
            ]),
        ],
        ids=["v0-100", "v0-400", "v0-52.5"],
    )
    def test_parity_roots(self, first_top, model, roots, top):
        # each doublet's levels, split by 2e-18 to 2e-8 eV, come back within
        # the bound of the parity roots wherever the first window ends (top,
        # or the model's own estimate where None)
        if top is not None:
            first_top(model, top)
        cfg = RootfindConfig()
        got = np.array(solve_levels(model, U1, len(roots), cfg))
        assert (np.abs(got - roots) <= _level_bound(np.array(roots), cfg)).all()

    @given(case=_symmetric_opaque_models())
    @settings(max_examples=20, deadline=None)
    def test_window_does_not_move_the_levels(self, case):
        # the first window's top only sets where the growth starts, and
        # e_min is the count origin: the levels above a mid-gap e_min are
        # the default solve's levels above it
        model, n = case
        levels = np.array(solve_levels(model, U1, n))
        bound = _level_bound(levels, RootfindConfig())
        for top in (0.3 * levels[0], 3.0 * levels[-1], 30.0 * levels[-1]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(type(model), "level_window", lambda self, units, n_levels: top)
                got = solve_levels(model, U1, n)
            assert (np.abs(got - levels) <= bound).all(), top
        for i in np.flatnonzero(np.diff(levels) > 1e-6):
            e_min = 0.5 * (levels[i] + levels[i + 1])
            got = solve_levels(model, U1, n - i - 1, RootfindConfig(e_min=e_min))
            assert (np.abs(got - levels[i + 1 :]) <= bound[i + 1 :]).all(), e_min


class TestHighLevels:
    @pytest.mark.parametrize(
        "model", [M3Params(0.0, 2.0, 2.0), M3Params(0.0, 0.5, 0.5), M4Params(7.0, 2.0, 2.0, 0.0)]
    )
    def test_five_hundred_oscillator_levels(self, model):
        # symmetric wells with no barrier: the levels are hw (n + 1/2); at the
        # top, each reciprocal-gamma log reaches about 1 100, far past what
        # plain floats hold unscaled
        levels = solve_levels(model, U1, 500)
        want = model.hw1 * (np.arange(500) + 0.5)
        assert np.max(np.abs(np.asarray(levels) - want)) <= 1e-9
        # each piece is divided by sqrt(h^2 + j^2), which bounds it in both
        # forms: |psi| <= 1 and |psi'| <= sqrt(2 u hw)
        energies = np.linspace(1e-6, levels[-1] + model.hw1, 2001)
        bound = math.sqrt(2.0 * U1.u * model.hw1)
        array = models._harmonics(energies, model.hw1, model.hw2, U1.u, models._ARRAY)
        for e in energies[::10].tolist():
            scalar = models._harmonics(e, model.hw1, model.hw2, U1.u, models._SCALAR)
            for psi, slope, _ in scalar:
                assert abs(psi) <= 1.0 and abs(slope) <= bound
        for psi, slope, _ in array:
            assert np.all(np.abs(psi) <= 1.0) and np.all(np.abs(slope) <= bound)


class TestEverywhereFinite:
    @pytest.mark.parametrize(
        "model,e_max",
        [
            (M1Params(10.0, 2.0, 2.0), 30.0),
            (M2Params(10.0, 2.0, 1.0, 3.0), 30.0),
            (M3Params(10.0, 2.0, 1.5), 40.0),
            (M4Params(10.0, 2.0, 0.5, 0.5), 40.0),
        ],
    )
    def test_dense_scan_finite(self, model, e_max):
        f = characteristic_fn(model, U1)
        for e in np.linspace(1e-9, e_max, 4001):
            v = f(float(e))
            assert math.isfinite(v)

    @given(st.floats(min_value=1e-6, max_value=60.0))
    @settings(max_examples=200, deadline=None)
    def test_m3_finite_property(self, e):
        assert math.isfinite(M3Params(10.0, 2.0, 0.7).char(e, U1))

    def test_dispatcher(self):
        for m in (M1Params(0.0, 1.0, 1.0), M3Params(0.0, 1.0, 1.0)):
            assert characteristic(1.0, m, U1) == m.char(1.0, U1)
        with pytest.raises(ModelMismatchError):
            characteristic(1.0, object(), U1)  # type: ignore[arg-type]


def _models(kind):
    """Strategy for models of one variant.  v0 is 0, moderate, or high
    enough that barrier arguments pass the overflow cap of 350; m4 widths
    include a = 0."""
    v0 = st.one_of(st.just(0.0), st.floats(0.1, 50.0), st.floats(2e4, 1e5))
    length = st.floats(0.3, 3.0)
    hw = st.floats(0.3, 4.0)
    if kind == "m1":
        return st.builds(M1Params, v0, length, length)
    if kind == "m2":
        return st.builds(
            lambda v, b, d1, d2: M2Params(v, b + d1, b, b + d2), v0, length, length, length
        )
    if kind == "m3":
        return st.builds(M3Params, v0, hw, hw)
    return st.builds(M4Params, v0, hw, hw, st.one_of(st.just(0.0), st.floats(0.05, 2.0)))


def _branch_energies(model):
    """Energies where char takes a special branch: the exact gamma poles
    E = hw (2m + 1/2) of the harmonic variants, and E = v0 (the barrier
    series) of the rectangular barriers."""
    out = []
    for hw in (getattr(model, "hw1", None), getattr(model, "hw2", None)):
        if hw is not None:
            out += [hw * (2 * m + 0.5) for m in range(6)]
    if model.kind in ("m2", "m4") and model.v0 > 0.0:
        out += [model.v0, model.v0 * (1.0 - 1e-9), model.v0 * (1.0 + 1e-9)]
    return out


class TestCharValues:
    @pytest.mark.parametrize("kind", list(VARIANTS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_char(self, kind, data):
        model = data.draw(_models(kind))
        top = 1.5 * model.level_window(U1, 8)
        energies = np.concatenate(
            [np.linspace(1e-6, top, 257), [e for e in _branch_energies(model) if e <= top]]
        )
        got, _ = model.char_values(energies, U1)
        want = np.array([model.char(float(e), U1) for e in energies])
        scale = float(np.max(np.abs(want)))
        resolved = np.abs(want) > 1e-12 * scale
        assert np.array_equal(np.sign(got[resolved]), np.sign(want[resolved]))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_exact_poles_and_barrier_top(self):
        # odd levels of the symmetric oscillator sit exactly on gamma poles
        m = M3Params(0.0, 2.0, 2.0)
        assert np.all(m.char_values(np.array([3.0, 7.0, 11.0]), U1)[0] == 0.0)
        m4 = M4Params(10.0, 2.0, 1.5, 0.5)
        e = np.array([10.0])
        assert m4.char_values(e, U1)[0][0] == pytest.approx(m4.char(10.0, U1), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            M2Params(10.0, 2.0, 1.0, 3.0).char_values(np.array([1.0, bad]), U1)


def _swept_models(kind, rng):
    """A seeded model of one variant and values of its sweep parameter:
    runs of equal values, as along the rows of a sweep, and lone ones."""
    v0 = float(rng.choice([0.0, rng.uniform(0.1, 50.0)]))
    if kind == "m1":
        model, low, high = M1Params(v0, rng.uniform(0.3, 3.0), 1.0), 0.3, 3.0
    elif kind == "m2":
        b = rng.uniform(0.1, 1.5)
        model, low, high = M2Params(v0, b + rng.uniform(0.3, 3.0), b, b + 1.0), b + 0.3, b + 3.0
    elif kind == "m3":
        model, low, high = M3Params(v0, rng.uniform(0.3, 4.0), 1.0), 0.3, 4.0
    else:
        a = float(rng.choice([0.0, rng.uniform(0.05, 1.5)]))
        model, low, high = M4Params(v0, rng.uniform(0.3, 4.0), 1.0, a), 0.3, 4.0
    values = np.concatenate([np.full(40, rng.uniform(low, high)), rng.uniform(low, high, 60)])
    return model, np.concatenate([values, np.full(30, rng.uniform(low, high))])


class TestSweepParameterArray:
    @pytest.mark.parametrize("kind", list(VARIANTS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_per_point_models(self, kind, seed):
        # each (F, N) of char_values(at=values) is that of model.at(value),
        # bit for bit, at the harmonic variants' exact gamma poles too
        rng = np.random.default_rng(seed)
        model, values = _swept_models(kind, rng)
        points = [model.at(v) for v in values.tolist()]
        top = max(p.level_window(U1, 8) for p in points)
        energies = rng.uniform(1e-6, top, values.size)
        if kind in ("m3", "m4"):
            energies[::7] = values[::7] * (2 * rng.integers(0, 6, energies[::7].size) + 0.5)
        got_f, got_n = model.char_values(energies, U1, at=values)
        for e, point, f, n in zip(energies.tolist(), points, got_f.tolist(), got_n.tolist()):
            want_f, want_n = point.char_values(np.array([e]), U1)
            assert (f, n) == (want_f[0], want_n[0])
            assert math.copysign(1.0, f) == math.copysign(1.0, want_f[0])

    @pytest.mark.parametrize("kind", list(VARIANTS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_count_free_values_equal_counted(self, kind, seed):
        # f_values is char_values' F bit for bit, signed zeros and the
        # harmonic variants' exact gamma poles included, with and without at
        rng = np.random.default_rng(seed)
        model, values = _swept_models(kind, rng)
        top = max(model.at(v).level_window(U1, 8) for v in values.tolist())
        energies = rng.uniform(1e-6, top, values.size)
        if kind in ("m3", "m4"):
            energies[::7] = values[::7] * (2 * rng.integers(0, 6, energies[::7].size) + 0.5)
        for at in (None, values):
            want, _ = model.char_values(energies, U1, at=at)
            got = model.f_values(energies, U1, at=at)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        with pytest.raises(DomainError):
            model.f_values(np.array([1.0, 0.0]), U1)

    def test_model_unchanged(self):
        model = M3Params(10.0, 2.0, 2.0)
        model.char_values(np.array([1.0, 2.0]), U1, at=np.array([1.5, 2.5]))
        assert model == M3Params(10.0, 2.0, 2.0) and type(model.hw2) is float


class TestGammaFactors:
    def test_stacked_call_matches_four_calls(self):
        # orders whose arguments -nu/2 and 1/2 - nu/2 sit exactly on the
        # poles 0, -1, -2, ..., just inside and outside the pole
        # tolerance, and seeded ones: _harmonics' one call on the stacked
        # (-nu1/2, -nu2/2) equals a call per well bit for bit, in both
        # forms, and its four factors j1, j2, h1, h2 carry the signs of
        # four recip_gamma_log calls
        from dwcross.specfun import POLE_TOLERANCE, recip_gamma_log, recip_gamma_pair_values

        whole = np.arange(0.0, 60.0)
        nu = np.concatenate([
            whole, whole + POLE_TOLERANCE, whole - 3.0 * POLE_TOLERANCE,
            np.random.default_rng(5).uniform(-0.5, 400.0, 500),
        ])
        nu1, nu2 = nu, np.random.default_rng(6).permutation(nu)
        j, h = models._ARRAY.gamma_pairs((-0.5 * nu1, -0.5 * nu2))
        assert j.shape == h.shape == (2, nu.size)
        for row, nu_row in enumerate((nu1, nu2)):
            j_row, h_row = recip_gamma_pair_values(-0.5 * nu_row)
            assert j[row].tobytes() == j_row.tobytes()
            assert h[row].tobytes() == h_row.tobytes()
            want_h = [recip_gamma_log(-0.5 * v)[0] for v in nu_row.tolist()]
            want_j = [recip_gamma_log(0.5 - 0.5 * v)[0] for v in nu_row.tolist()]
            assert np.sign(h[row]).tolist() == want_h
            assert np.sign(j[row]).tolist() == want_j
        for a, b in zip((-0.5 * nu1).tolist(), (-0.5 * nu2).tolist()):
            (j1, j2), (h1, h2) = models._SCALAR.gamma_pairs((a, b))
            assert ([j1], [h1]) == models._gamma_factors((a,))
            assert ([j2], [h2]) == models._gamma_factors((b,))
        assert (h == 0.0).any() and (j == 0.0).any()


def _count_models(kind):
    """Strategy for models of one variant for the level count: about a
    third exactly symmetric, v0 = 0 or log-uniform in [0.1, 1e3] eV (so
    the 8-level window reaches above low barriers), m4 widths a = 0."""
    v0 = st.one_of(st.just(0.0), st.floats(-1.0, 3.0).map(lambda x: 10.0**x))
    length = st.floats(0.3, 3.0)
    hw = st.floats(0.3, 4.0)
    symmetric = st.integers(0, 2).map(lambda i: i == 0)
    if kind == "m1":
        return st.builds(lambda v, a, b, sym: M1Params(v, a, a if sym else b),
                         v0, length, length, symmetric)
    if kind == "m2":
        return st.builds(
            lambda v, b, d1, d2, sym: M2Params(v, b + d1, b, b + (d1 if sym else d2)),
            v0, st.floats(0.1, 1.5), length, length, symmetric,
        )
    if kind == "m3":
        return st.builds(lambda v, h1, h2, sym: M3Params(v, h1, h1 if sym else h2),
                         v0, hw, hw, symmetric)
    return st.builds(
        lambda v, h1, h2, a, sym: M4Params(v, h1, h1 if sym else h2, a),
        v0, hw, hw, st.one_of(st.just(0.0), st.floats(0.05, 1.5)), symmetric,
    )


def _pole_energies(model, top):
    """Energies below top where a piece of the count has a pole: sin(k d)
    = 0 for each well width d of a box variant, odd nu of each harmonic
    arm, and E = v0 for a rectangular barrier; each with its two float
    neighbours."""
    poles = []
    if model.kind in ("m1", "m2"):
        widths = (model.a, model.b) if model.kind == "m1" else (
            model.a - model.b, model.c - model.b)
        for d in widths:
            top_j = int(d * math.sqrt(top) / math.pi)
            poles += [(j * math.pi / d) ** 2 for j in range(1, top_j + 1)]
    else:
        for hw in (model.hw1, model.hw2):
            poles += [hw * (2 * m + 1.5) for m in range(int(top / (2.0 * hw)) + 1)]
    if model.kind in ("m2", "m4") and model.v0 > 0.0:
        poles.append(model.v0)
    poles = np.array([e for e in poles if 0.0 < e <= top])
    return np.concatenate([poles, np.nextafter(poles, 0.0), np.nextafter(poles, np.inf)])


class TestLevelCount:
    """N(E), the count char_values returns, against the oracle's Sturm count."""

    @pytest.mark.parametrize("kind", list(VARIANTS))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_oracle_between_levels(self, kind, data):
        # at the midpoint of every gap wider than 1e-2 eV between the
        # oracle's lowest ten levels, N is the number of levels below
        model = data.draw(_count_models(kind))
        top = model.level_window(U1, 8)
        T = oracle.build_hamiltonian(model, U1, oracle.OracleConfig(n_points=4000), e_top=top)
        levels = oracle.lowest_eigenvalues(T, 10, tol=1e-7)
        gaps = [(0.0, levels[0])] + list(zip(levels[:-1], levels[1:]))
        probes = [(j, 0.5 * (lo + hi)) for j, (lo, hi) in enumerate(gaps) if hi - lo > 1e-2]
        _, counts = model.char_values(np.array([e for _, e in probes]), U1)
        assert counts.tolist() == [j for j, _ in probes]

    @pytest.mark.parametrize("kind", list(VARIANTS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_never_decreases_through_poles(self, kind, data):
        model = data.draw(_count_models(kind))
        top = model.level_window(U1, 8)
        energies = np.unique(
            np.concatenate([np.linspace(1e-6, top, 2001), _pole_energies(model, top)])
        )
        _, counts = model.char_values(energies, U1)
        assert np.all(np.diff(counts) >= 0.0)

    @pytest.mark.parametrize("kind", list(VARIANTS))
    @given(data=st.data(), n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_level_window_holds_n_levels(self, kind, data, n):
        model = data.draw(_count_models(kind))
        top = model.level_window(U1, n)
        _, counts = model.char_values(np.array([top]), U1)
        assert counts[0] >= n

    def test_opaque_window_is_tens_of_ev(self):
        # hard walls at the barrier edges bound the levels whatever v0 is
        model = M2Params(1e6, 2.0, 1.0, 2.5)
        assert model.level_window(U1, 4) < 100.0
        assert model.char_values(np.array([model.level_window(U1, 4)]), U1)[1][0] >= 4
