"""The reciprocal gamma function and its pair form, and the
parabolic-cylinder boundary values the m3 level condition is checked
against."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dwcross.errors import DomainError
from dwcross.models import _gamma_factors
from dwcross.specfun import POLE_TOLERANCE, recip_gamma_log, recip_gamma_pair_values
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

    # Closed forms in exact integer arithmetic, a reference that shares no
    # code with math.lgamma.  A log of a ratio is the difference of the
    # logs of its exact integer numerator and denominator.

    def test_positive_axis_against_factorials(self):
        for n in range(1, 172):
            # Gamma(n) = (n-1)!
            log_abs, sign = log_gamma_signed(float(n))
            ref = math.log(math.factorial(n - 1))
            assert sign == 1
            assert abs(log_abs - ref) <= 1e-14 * max(1.0, abs(ref))
        for n in range(0, 171):
            # Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!)
            log_abs, sign = log_gamma_signed(n + 0.5)
            ref = (
                math.log(math.factorial(2 * n))
                - math.log(4**n * math.factorial(n))
                + math.log(SQRT_PI)
            )
            assert sign == 1
            assert abs(log_abs - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_negative_axis_against_factorials(self):
        for n in range(1, 121):
            # Gamma(1/2 - n) = (-4)^n n! sqrt(pi) / (2n)!: Gamma alternates
            # sign between poles, negative on (-1, 0), positive on (-2, -1), ...
            log_abs, sign = log_gamma_signed(0.5 - n)
            ref = (
                math.log(4**n * math.factorial(n))
                - math.log(math.factorial(2 * n))
                + math.log(SQRT_PI)
            )
            assert sign == (-1) ** n
            assert abs(log_abs - ref) <= 1e-14 * max(1.0, abs(ref))

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
        with pytest.raises(DomainError):
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


# (x, Gamma(x + 1/2)/Gamma(x)) at 40 digits, printed by gamma_ratio_refs.py
_REFERENCE_RATIOS = [
    (-2e-12, -3.5449077018208605544e-12),
    (2e-12, 3.5449077018012034122e-12),
    (-1e-09, -1.7724538533626589212e-9),
    (1e-09, 1.7724538484483733635e-9),
    (-1e-06, -1.772456308052913543e-6),
    (1e-06, 1.7724513937673558138e-6),
    (-1.000000000002, -7.0896585647154693228e-12),
    (-0.999999999998, 7.0896585647045147846e-12),
    (-1.000000001, -3.5449079964873885539e-9),
    (-0.999999999, 3.5449076001848176208e-9),
    (-1.000001, -3.544909070908673088e-6),
    (-0.999999, 3.5449063325465252403e-6),
    (-2.000000000002, -9.4539275897910015711e-12),
    (-1.999999999998, 9.4528780862758372691e-12),
    (-2.000000001, -4.7265439945287606747e-9),
    (-1.999999999, 4.7265439924526005828e-9),
    (-2.000001, -4.7265446411706886749e-6),
    (-1.999999, 4.7265425639614367798e-6),
    (-7.000000000002, -1.6924513727173193538e-11),
    (-6.999999999998, 1.6924513727168529811e-11),
    (-7.000000001, -8.4615053315871577197e-9),
    (-6.999999999, 8.4615053304214330633e-9),
    (-7.000001, -8.4615052149690440469e-6),
    (-6.999999, 8.4615040492445801817e-6),
    (-30.000000000002, -3.4561181411117673507e-11),
    (-29.999999999998, 3.4561181411115388423e-11),
    (-30.000000001, -1.7279056017504102668e-8),
    (-29.999999999, 1.7279056016932933159e-8),
    (-30.000001, -0.000017279054890946796892),
    (-29.999999, 0.000017279054319777380589),
    (-0.500000000002, 141050516167.15383453),
    (-0.499999999998, -141046601250.59656428),
    (-0.500000001, 282094799.92518709969),
    (-0.499999999, -282094783.91953410667),
    (-0.500001, 282094.96488795563649),
    (-0.499999, -282094.61865728622355),
    (-1.500000000002, 211575774250.5897044),
    (-1.499999999998, -211575774250.3524297),
    (-1.500000001, 423142152.76851586893),
    (-1.499999999, -423142152.53124116747),
    (-1.500001, 423142.30633157027399),
    (-1.499999, -423142.06905686881762),
    (-3.500000000002, 308513751450.59697821),
    (-3.499999999998, -308513751450.43313883),
    (-3.500000001, 617082306.02965919903),
    (-3.499999999, -617082305.86581981242),
    (-3.500001, 617082.43883676171229),
    (-3.499999, -617082.27499737510846),
    (-20.500000000002, 724947121159.95660722),
    (-20.499999999998, -724947121159.88673672),
    (-20.500000001, 1450023018.8218111698),
    (-20.499999999, -1450023018.751940673),
    (-20.500001, 1450023.172202235479),
    (-20.499999, -1450023.1023317387358),
    (0.05, 0.083005505260899174693),
    (0.125, 0.190407481831223707),
    (0.2, 0.28274875253429151795),
    (0.25, 0.3379891200336423645),
    (-123.4, -34.223267008013744803),
    (-999.7, 43.523930530721019912),
    (-9999.3, -137.63509517380166058),
    (-10000.3, -137.64197706619819859),
]

EPS = np.finfo(float).eps


def _scalar_pairs(xs):
    """(j, h) of each x from the scalar form, through recip_gamma_log."""
    js, hs = _gamma_factors(tuple(xs))
    return np.array(js), np.array(hs)


class TestRecipGammaPairValues:
    def test_reference_ratios(self):
        # R = h/j next to the poles of both gammas, in (0, 1/4] and down to
        # -1e4: the array form within 8 ulp; the scalar form, which
        # subtracts two math.lgamma values, within 2 ulp of each of them
        xs = np.array([x for x, _ in _REFERENCE_RATIOS])
        want = np.array([r for _, r in _REFERENCE_RATIOS])
        j, h = recip_gamma_pair_values(xs)
        assert np.all(np.abs(h / j - want) <= 8.0 * EPS * np.abs(want))
        j, h = _scalar_pairs(xs.tolist())
        lgammas = np.array([abs(math.lgamma(x)) + abs(math.lgamma(x + 0.5)) for x in xs])
        assert np.all(np.abs(h / j - want) <= (2.0 * lgammas + 4.0) * EPS * np.abs(want))
        # within POLE_TOLERANCE of 0, -1, -2, ... R is exactly 0, and of
        # -1/2, -3/2, ... 1/R is
        poles = np.array([0.0, -1.0, -2.0, -15.0, -3.0 + 0.5 * POLE_TOLERANCE, -7.0 - 0.9e-12])
        j, h = recip_gamma_pair_values(np.concatenate([poles, poles - 0.5]))
        assert np.all(h[: poles.size] == 0.0) and np.all(j[poles.size :] == 0.0)
        assert np.all(np.abs(j[: poles.size]) == 1.0) and np.all(np.abs(h[poles.size :]) == 1.0)

    def test_signs_match_scalar(self):
        # orders nu on the poles of h = 1/Gamma(-nu/2) (even nu) and of
        # j = 1/Gamma(1/2 - nu/2) (odd nu), inside and at the pole tolerance
        # either side, and seeded ones: the counts read these signs, so
        # the array form's equal recip_gamma_log's and the scalar form's
        whole = np.arange(0.0, 60.0)
        nu = np.concatenate([
            whole + offset * POLE_TOLERANCE for offset in (0.0, -1.0, 1.0, -2.0, 2.0, -4.0, 4.0)
        ] + [np.random.default_rng(5).uniform(-0.5, 400.0, 500)])
        x = -0.5 * nu
        j, h = recip_gamma_pair_values(x)
        want_h = [recip_gamma_log(v)[0] for v in x.tolist()]
        want_j = [recip_gamma_log(v)[0] for v in (0.5 - 0.5 * nu).tolist()]
        assert np.sign(h).tolist() == want_h and np.sign(j).tolist() == want_j
        scalar_j, scalar_h = _scalar_pairs(x.tolist())
        assert np.sign(scalar_h).tolist() == want_h and np.sign(scalar_j).tolist() == want_j
        assert 0 in want_h and 0 in want_j

    def test_matches_scalar_bulk(self):
        # the two forms agree within the scalar's lgamma error, a few ulp
        # of each log-gamma, on a seeded sweep of x <= 1/4
        xs = np.random.default_rng(11).uniform(-250.0, 0.25, 20000)
        j, h = recip_gamma_pair_values(xs)
        scalar_j, scalar_h = _scalar_pairs(xs.tolist())
        lgammas = np.array([abs(math.lgamma(x)) + abs(math.lgamma(x + 0.5)) for x in xs])
        bound = (2.0 * lgammas + 16.0) * EPS
        assert np.all(np.abs(j - scalar_j) <= bound * np.abs(scalar_j))
        assert np.all(np.abs(h - scalar_h) <= bound * np.abs(scalar_h))
        assert [v.shape for v in recip_gamma_pair_values(np.array([]))] == [(0,), (0,)]

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, -(2.0**52)])
    def test_rejects_non_finite(self, bad):
        # below -2^52, x and x + 1/2 are both integers in floating point
        with pytest.raises(DomainError):
            recip_gamma_pair_values(np.array([0.1, bad]))


class TestRecipGammaLogValues:
    """The array pair form against recip_gamma_log's signed logs, on drawn
    lists of x <= 1/4 (the pair form's domain)."""

    @given(
        st.lists(
            st.one_of(
                st.floats(min_value=-250.0, max_value=0.25),
                st.floats(min_value=-250.0, max_value=-100.0),
                # exact poles of Gamma(x) and of Gamma(x + 1/2), and points
                # just inside and outside the tolerance
                st.integers(min_value=-250, max_value=0).map(float),
                st.integers(min_value=-250, max_value=0).map(
                    lambda n: n + 0.5 * POLE_TOLERANCE
                ),
                st.integers(min_value=-250, max_value=0).map(lambda n: n - 2.0 * POLE_TOLERANCE),
                st.integers(min_value=-250, max_value=-1).map(lambda n: n + 0.5),
                st.integers(min_value=-250, max_value=-1).map(
                    lambda n: n + 0.5 - 2.0 * POLE_TOLERANCE
                ),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar(self, xs):
        # signs equal recip_gamma_log's at x and x + 1/2 bit for bit, and
        # values the scalar form's within its lgamma error
        j, h = recip_gamma_pair_values(np.array(xs))
        assert np.sign(h).tolist() == [recip_gamma_log(x)[0] for x in xs]
        assert np.sign(j).tolist() == [recip_gamma_log(x + 0.5)[0] for x in xs]
        scalar_j, scalar_h = _scalar_pairs(xs)
        # |log-gamma| at x and x + 1/2, counting a pole's (a snapped zero) as 0
        lgammas = np.array([
            sum(abs(log) for sign, log in (recip_gamma_log(x), recip_gamma_log(x + 0.5)) if sign)
            for x in xs
        ])
        bound = (2.0 * lgammas + 16.0) * EPS
        assert np.all(np.abs(j - scalar_j) <= bound * np.abs(scalar_j))
        assert np.all(np.abs(h - scalar_h) <= bound * np.abs(scalar_h))


@pytest.mark.parametrize("x", [3e305, 1e306, 1.7e308])
def test_gamma_overflow_is_a_dead_term(x):
    # log|Gamma(x)| itself overflows here: 1/Gamma(x) is an exact zero with
    # a positive sign, not an exception
    assert recip_gamma_log(x) == (1, -math.inf)


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
