import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from qground.errors import InvalidParams
from qground.params import Params
from qground.transform import (F_omega_u, f_omega_u, f_omega_prime_u, h,
                               h_prime, r, s_star)

# independent oracle value (mpmath, 30 digits; see tests/oracle.py):
# h(1) at delta = 1/2 equals sqrt(3/2)/2 + asinh(1)/2
H_HALF_ONE = 1.147793574696319

DELTA_HALF = Params(3, 3, 0.5, 0.7)
DELTA_ONE = Params(3, 3, 1.0, 0.7)


# references on the v side, composed from the closed forms in u = r(s)
def r_prime(s, params):
    return 1.0 / h_prime(r(s, params), params)


def r_second(s, params):
    rr = r(s, params)
    return -2.0 * params.delta * rr / h_prime(rr, params) ** 4


def f_omega(s, params):
    return f_omega_u(r(s, params), params)


def F_omega(s, params):
    return F_omega_u(r(s, params), params)


def f_omega_prime(s, params):
    return f_omega_prime_u(r(s, params), params)


class TestForwardMap:
    def test_h_at_zero(self):
        assert h(0.0, DELTA_HALF) == 0.0

    def test_h_frozen_value(self):
        assert h(1.0, DELTA_HALF) == pytest.approx(H_HALF_ONE, rel=1e-14)

    def test_h_large_argument_limit(self):
        # h(t)/t^2 -> sqrt(delta/2)
        t = 1e6
        assert h(t, DELTA_HALF) / t ** 2 == pytest.approx(math.sqrt(0.25), rel=1e-9)

    def test_h_dominates_identity(self):
        t = np.linspace(0.0, 50.0, 200)
        assert np.all(h(t, DELTA_ONE) >= t)

    def test_h_derivative_matches_ode_coefficient(self):
        # h'(t) = sqrt(1 + 2 delta t^2) by construction of the inverse
        for t in (0.3, 1.0, 3.0, 17.0):
            eps = 1e-6 * max(1.0, t)
            fd = (h(t + eps, DELTA_ONE) - h(t - eps, DELTA_ONE)) / (2 * eps)
            assert fd == pytest.approx(math.sqrt(1 + 2 * t * t), rel=1e-8)


class TestInverseMap:
    def test_r_at_zero_and_odd(self):
        assert r(0.0, DELTA_HALF) == 0.0
        assert r(-2.0, DELTA_HALF) == -r(2.0, DELTA_HALF)

    def test_inverse_consistency(self):
        t = np.linspace(0.0, 100.0, 257)
        err = np.abs(r(h(t, DELTA_ONE), DELTA_ONE) - t)
        assert np.max(err) < 1e-12 * np.maximum(1.0, t).max()

    def test_sqrt_growth(self):
        # r(s)/sqrt(s) -> (2/delta)^(1/4)
        s = 1e6
        assert r(s, DELTA_HALF) / math.sqrt(s) == pytest.approx(2.0 ** 0.5, rel=1e-3)

    def test_r_prime_at_zero_and_bound(self):
        assert r_prime(0.0, DELTA_ONE) == 1.0
        s = np.linspace(0.0, 100.0, 500)
        rp = r_prime(s, DELTA_ONE)
        assert np.all(rp > 0)
        assert np.all(rp <= 1.0)

    def test_r_prime_is_derivative_of_r(self):
        for s in (0.1, 1.0, 10.0, 80.0):
            eps = 1e-6 * max(1.0, s)
            fd = (r(s + eps, DELTA_ONE) - r(s - eps, DELTA_ONE)) / (2 * eps)
            assert fd == pytest.approx(r_prime(s, DELTA_ONE), rel=1e-8)

    def test_r_second_sign_and_value(self):
        assert r_second(1.0, DELTA_ONE) < 0
        for s in (0.5, 2.0, 9.0):
            eps = 1e-5
            fd = (r_prime(s + eps, DELTA_ONE) - r_prime(s - eps, DELTA_ONE)) / (2 * eps)
            assert fd == pytest.approx(r_second(s, DELTA_ONE), rel=1e-6)

    def test_ode_consistency_pointwise(self):
        s = np.linspace(1e-6, 200.0, 1000)
        rr = r(s, DELTA_ONE)
        assert np.max(np.abs(r_prime(s, DELTA_ONE)
                             - 1.0 / np.sqrt(1 + 2 * rr ** 2))) < 1e-12

    def test_sandwich(self):
        # (1/2) r(s) <= s / sqrt(1 + 2 delta r(s)^2) <= r(s)
        for delta in (0.3, 1.0, 2.5):
            params = Params(3, 3, delta, 1.0)
            s = np.geomspace(1e-8, 1e6, 10_000)
            rr = r(s, params)
            mid = s / np.sqrt(1 + 2 * delta * rr ** 2)
            assert np.all(mid <= rr * (1 + 1e-12))
            assert np.all(0.5 * rr <= mid * (1 + 1e-12))

    @pytest.mark.parametrize("delta", [0.5, 1.0, 10.0])
    def test_inverse_exact_to_rounding(self, delta):
        # the Newton solve ends one step past a relative step test, so
        # h(r(s)) returns s to rounding from 1e-12 to 1e8, scalar or array
        params = Params(3, 3, delta, 1.0)
        s = np.geomspace(1e-12, 1e8, 2001)
        s = np.concatenate([-s[::-1], s])
        eps = np.finfo(float).eps
        assert np.all(np.abs(h(r(s, params), params) - s) <= 4 * eps * np.abs(s))
        for x in s[::97]:
            assert abs(h(r(float(x), params), params) - x) <= 4 * eps * abs(x)

    def test_identity_transform(self):
        nls = Params(3, 3, 0.0, 1.0)
        s = np.linspace(-5, 5, 11)
        assert np.array_equal(r(s, nls), s)
        assert h(3.0, nls) == 3.0


class TestContext:
    def test_invalid_context(self):
        # the transform takes its coupling from Params, which rejects it
        with pytest.raises(InvalidParams):
            Params(3, 3, -1.0, 1.0)


class TestNonlinearity:
    def test_f_at_zero(self):
        assert f_omega(0.0, DELTA_ONE) == 0.0

    def test_small_s_expansion(self):
        # f_omega(s) = s^p - omega s + O(delta omega s^3) since r(s)/s -> 1
        s, omega, p = 1e-3, 0.7, 3.0
        val = f_omega(s, DELTA_ONE)
        assert val == pytest.approx(s ** p - omega * s,
                                    abs=2 * omega * s ** 3)

    def test_primitive_by_quadrature(self):
        for s_end in (0.5, 2.0, 10.0):
            for omega in (0.0, 0.7):
                params = DELTA_ONE.with_omega(omega)
                expected, _ = quad(
                    lambda s: f_omega(s, params), 0.0, s_end, limit=200)
                assert abs(F_omega(s_end, params) - expected) < 1e-8

    def test_derivative_by_differencing(self):
        for s in (0.25, 1.5, 7.0):
            eps = 1e-6
            fd = (f_omega(s + eps, DELTA_ONE) - f_omega(s - eps, DELTA_ONE)) / (2 * eps)
            assert fd == pytest.approx(f_omega_prime(s, DELTA_ONE), rel=1e-7)

    def test_s_star_is_the_zero_of_F(self):
        star = s_star(DELTA_ONE)
        assert F_omega(star, DELTA_ONE) == pytest.approx(0.0, abs=1e-14)
        # root-find independently and compare
        bracket = brentq(lambda s: F_omega(s, DELTA_ONE), 1e-6, 100.0)
        assert star == pytest.approx(bracket, rel=1e-10)
        beyond = np.linspace(star * 1.001, star * 10, 50)
        assert np.all(F_omega(beyond, DELTA_ONE) > 0)

    def test_zero_mass_upper_bound(self):
        # f_0(s) <= C_0 s^{(p-1)/2} with a uniform constant
        p = 3.0
        s = np.geomspace(1e-3, 1e6, 400)
        ratio = f_omega(s, DELTA_ONE.with_omega(0.0)) / s ** ((p - 1) / 2)
        assert np.all(np.isfinite(ratio))
        assert ratio.max() < 2.0 * (2.0 / DELTA_ONE.delta) ** (p / 4)


@settings(max_examples=150, deadline=None)
@given(delta=st.floats(1e-3, 1e3), t=st.floats(0.0, 1e3))
def test_inverse_roundtrip_property(delta, t):
    params = Params(3, 3, delta, 1.0)
    assert r(h(t, params), params) == pytest.approx(t, rel=1e-10, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(delta=st.floats(1e-3, 1e3), s=st.floats(1e-9, 1e6))
def test_sandwich_property(delta, s):
    params = Params(3, 3, delta, 1.0)
    rr = r(s, params)
    mid = s / math.sqrt(1 + 2 * delta * rr * rr)
    assert 0.5 * rr <= mid * (1 + 1e-12)
    assert mid <= rr * (1 + 1e-12)
    assert abs(r_prime(s, params)) <= 1.0
