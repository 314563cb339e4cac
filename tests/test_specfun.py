"""The reciprocal gamma function, and the parabolic-cylinder boundary
values the m3 level condition is checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwcross.errors import PoleProximityError
from dwcross.specfun import POLE_TOLERANCE, recip_gamma_log, recip_gamma_log_values
from reference_oracles import pcf_at_zero

SQRT_PI = math.sqrt(math.pi)


def log_gamma_signed(x):
    """(log|Gamma(x)|, sign of Gamma(x)), read off recip_gamma_log."""
    sign, log = recip_gamma_log(x)
    return -log, sign


def recip_gamma(x):
    """1/Gamma(x) from its signed log (0.0 at the poles)."""
    sign, log = recip_gamma_log(x)
    return sign * math.exp(log)


class TestLogGammaSigned:
    def test_half(self):
        log_abs, sign = log_gamma_signed(0.5)
        assert sign == 1
        assert log_abs == pytest.approx(math.log(SQRT_PI), rel=1e-14)

    def test_one(self):
        log_abs, sign = log_gamma_signed(1.0)
        assert sign == 1
        assert abs(log_abs) < 1e-13

    def test_minus_half(self):
        # Gamma(-1/2) = -2 sqrt(pi) by reflection
        log_abs, sign = log_gamma_signed(-0.5)
        assert sign == -1
        assert log_abs == pytest.approx(math.log(2.0 * SQRT_PI), rel=1e-13)

    def test_positive_axis_against_libm(self):
        # math.lgamma is an independent reference implementation
        for x in np.linspace(0.05, 170.0, 1200):
            log_abs, sign = log_gamma_signed(float(x))
            assert sign == 1
            ref = math.lgamma(float(x))
            assert abs(log_abs - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_negative_axis_against_libm(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            x = float(rng.uniform(-30.0, -0.01))
            if abs(x - round(x)) < 1e-3:
                continue
            log_abs, sign = log_gamma_signed(x)
            assert abs(log_abs - math.lgamma(x)) <= 1e-10 * max(1.0, abs(math.lgamma(x)))
            # Gamma alternates sign between poles: negative on (-1, 0),
            # positive on (-2, -1), and so on.
            n = math.floor(-x)
            assert sign == (-1 if n % 2 == 0 else 1)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0, -3.0 + 1e-13])
    def test_pole_rejection(self, x):
        # within POLE_TOLERANCE of a pole, 1/Gamma is an exact zero: a dead
        # term, never a log of a huge |Gamma|
        assert recip_gamma_log(x) == (0, -math.inf)

    def test_reflection_identity_bulk(self):
        # Gamma(x) Gamma(1-x) = pi / sin(pi x), 1000 samples
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 1000:
            x = float(rng.uniform(-20.0, 20.0))
            if abs(x - round(x)) < 1e-3:
                continue
            log_a, sign_a = log_gamma_signed(x)
            log_b, sign_b = log_gamma_signed(1.0 - x)
            lhs = sign_a * sign_b * math.exp(log_a + log_b)
            rhs = math.pi / math.sin(math.pi * x)
            assert lhs == pytest.approx(rhs, rel=1e-9)
            checked += 1


class TestRecipGamma:
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(PoleProximityError):
            recip_gamma_log(x)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -15.0])
    def test_exact_zero_at_poles(self, x):
        assert recip_gamma(x) == 0.0

    def test_near_pole_snaps_to_zero(self):
        assert recip_gamma(-3.0 + 0.5 * POLE_TOLERANCE) == 0.0

    def test_gamma_three(self):
        assert recip_gamma(3.0) == pytest.approx(0.5, rel=1e-11)

    def test_reflection_cross_check_minus_three_halves(self):
        # independent route: Gamma(-3/2) = pi / (sin(-3 pi/2) Gamma(5/2))
        gamma_52 = 1.5 * 0.5 * SQRT_PI
        ref = math.pi / (math.sin(-1.5 * math.pi) * gamma_52)
        assert recip_gamma(-1.5) == pytest.approx(1.0 / ref, rel=1e-11)

    @given(st.floats(min_value=-60.0, max_value=60.0))
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x):
        # 1/Gamma(x+1) * x = 1/Gamma(x), including across the negative axis
        if min(abs(x - round(x)), abs(x + 1 - round(x + 1))) < 1e-5:
            return
        lhs = recip_gamma(x + 1.0) * x
        rhs = recip_gamma(x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    def test_signed_log_form_matches(self):
        # math.gamma is an independent reference implementation
        for x in np.linspace(-12.3, 15.7, 301):
            if abs(x - round(x)) < 1e-6 and round(x) <= 0:
                continue
            assert recip_gamma(float(x)) == pytest.approx(1.0 / math.gamma(float(x)), rel=1e-12)


class TestRecipGammaLogValues:
    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-250.0, max_value=250.0),
                st.floats(min_value=-250.0, max_value=-100.0),
                # exact poles, and points just inside and outside the tolerance
                st.integers(min_value=-250, max_value=0).map(float),
                st.integers(min_value=-250, max_value=0).map(
                    lambda n: n + 0.5 * POLE_TOLERANCE
                ),
                st.integers(min_value=-250, max_value=0).map(lambda n: n - 2.0 * POLE_TOLERANCE),
                st.integers(min_value=-250, max_value=250).map(lambda n: n + 0.5),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar(self, xs):
        signs, logs = recip_gamma_log_values(np.array(xs))
        for x, sign, log in zip(xs, signs, logs):
            want_sign, want_log = recip_gamma_log(x)
            assert sign == want_sign
            if want_sign == 0:
                assert log == -math.inf
            else:
                assert abs(log - want_log) <= 1e-13 * max(1.0, abs(want_log))

    def test_rejects_non_finite(self):
        with pytest.raises(PoleProximityError):
            recip_gamma_log_values(np.array([1.0, math.nan]))


class TestPcfAtZero:
    """The test-side D_nu(0) route (reference_oracles.pcf_at_zero) that the
    m3 level condition is checked against."""

    def test_nu_zero(self):
        # D_0(z) = exp(-z^2/4): value 1, slope 0
        vals = pcf_at_zero(0.0)
        assert vals.d0 == pytest.approx(1.0, rel=1e-12)
        assert vals.d0_prime == 0.0

    def test_nu_one(self):
        # D_1(z) = z exp(-z^2/4): value 0; the formula gives slope
        # -2 sqrt(pi) / Gamma(-1/2) = +1 (sign convention pinned by the
        # harmonic-limit acceptance test)
        vals = pcf_at_zero(1.0)
        assert vals.d0 == 0.0
        assert vals.d0_prime == pytest.approx(1.0, rel=1e-12)

    def test_nu_two(self):
        vals = pcf_at_zero(2.0)
        assert vals.d0_prime == 0.0
        assert vals.d0 == pytest.approx(-1.0, rel=1e-12)

    def test_never_both_zero_dense_scan(self):
        for nu in np.linspace(-5.0, 40.0, 9001):
            vals = pcf_at_zero(float(nu))
            assert not (vals.d0 == 0.0 and vals.d0_prime == 0.0)

    @given(st.floats(min_value=-5.0, max_value=40.0))
    @settings(max_examples=300, deadline=None)
    def test_never_both_zero_property(self, nu):
        vals = pcf_at_zero(nu)
        assert not (vals.d0 == 0.0 and vals.d0_prime == 0.0)

    def test_against_mpmath_reference(self):
        # Independent oracle: mpmath's parabolic cylinder function.
        mp = pytest.importorskip("mpmath")
        for nu in (0.3, 1.7, -0.9, 4.2, 9.6, -3.8):
            vals = pcf_at_zero(nu)
            ref_d0 = float(mp.pcfd(nu, 0.0))
            ref_d0p = float(mp.diff(lambda z, nu=nu: mp.pcfd(nu, z), 0.0))
            assert vals.d0 == pytest.approx(ref_d0, rel=1e-10, abs=1e-12)
            assert vals.d0_prime == pytest.approx(ref_d0p, rel=1e-8, abs=1e-8)
