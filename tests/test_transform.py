import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from qground.errors import InvalidParams
from qground.transform import (TransformContext, F_omega, f_omega,
                               f_omega_prime, h, r, r_prime, r_second, s_star)

# independent oracle value (mpmath, 30 digits; see tests/oracle.py):
# h(1) at delta = 1/2 equals sqrt(3/2)/2 + asinh(1)/2
H_HALF_ONE = 1.147793574696319

CTX = TransformContext(0.5)
CTX1 = TransformContext(1.0)


class TestForwardMap:
    def test_h_at_zero(self):
        assert h(0.0, CTX) == 0.0

    def test_h_frozen_value(self):
        assert h(1.0, CTX) == pytest.approx(H_HALF_ONE, rel=1e-14)

    def test_h_large_argument_limit(self):
        # h(t)/t^2 -> sqrt(delta/2)
        t = 1e6
        assert h(t, CTX) / t ** 2 == pytest.approx(math.sqrt(0.25), rel=1e-9)

    def test_h_dominates_identity(self):
        t = np.linspace(0.0, 50.0, 200)
        assert np.all(h(t, CTX1) >= t)

    def test_h_derivative_matches_ode_coefficient(self):
        # h'(t) = sqrt(1 + 2 delta t^2) by construction of the inverse
        for t in (0.3, 1.0, 3.0, 17.0):
            eps = 1e-6 * max(1.0, t)
            fd = (h(t + eps, CTX1) - h(t - eps, CTX1)) / (2 * eps)
            assert fd == pytest.approx(math.sqrt(1 + 2 * t * t), rel=1e-8)


class TestInverseMap:
    def test_r_at_zero_and_odd(self):
        assert r(0.0, CTX) == 0.0
        assert r(-2.0, CTX) == -r(2.0, CTX)

    def test_inverse_consistency(self):
        t = np.linspace(0.0, 100.0, 257)
        err = np.abs(r(h(t, CTX1), CTX1) - t)
        assert np.max(err) < 1e-12 * np.maximum(1.0, t).max()

    def test_sqrt_growth(self):
        # r(s)/sqrt(s) -> (2/delta)^(1/4)
        s = 1e6
        assert r(s, CTX) / math.sqrt(s) == pytest.approx(2.0 ** 0.5, rel=1e-3)

    def test_r_prime_at_zero_and_bound(self):
        assert r_prime(0.0, CTX1) == 1.0
        s = np.linspace(0.0, 100.0, 500)
        rp = r_prime(s, CTX1)
        assert np.all(rp > 0)
        assert np.all(rp <= 1.0)

    def test_r_prime_is_derivative_of_r(self):
        for s in (0.1, 1.0, 10.0, 80.0):
            eps = 1e-6 * max(1.0, s)
            fd = (r(s + eps, CTX1) - r(s - eps, CTX1)) / (2 * eps)
            assert fd == pytest.approx(r_prime(s, CTX1), rel=1e-8)

    def test_r_second_sign_and_value(self):
        assert r_second(1.0, CTX1) < 0
        for s in (0.5, 2.0, 9.0):
            eps = 1e-5
            fd = (r_prime(s + eps, CTX1) - r_prime(s - eps, CTX1)) / (2 * eps)
            assert fd == pytest.approx(r_second(s, CTX1), rel=1e-6)

    def test_ode_consistency_pointwise(self):
        s = np.linspace(1e-6, 200.0, 1000)
        rr = r(s, CTX1)
        assert np.max(np.abs(r_prime(s, CTX1)
                             - 1.0 / np.sqrt(1 + 2 * rr ** 2))) < 1e-12

    def test_sandwich(self):
        # (1/2) r(s) <= s / sqrt(1 + 2 delta r(s)^2) <= r(s)
        for delta in (0.3, 1.0, 2.5):
            ctx = TransformContext(delta)
            s = np.geomspace(1e-8, 1e6, 10_000)
            rr = r(s, ctx)
            mid = s / np.sqrt(1 + 2 * delta * rr ** 2)
            assert np.all(mid <= rr * (1 + 1e-12))
            assert np.all(0.5 * rr <= mid * (1 + 1e-12))

    def test_identity_transform(self):
        ctx0 = TransformContext(0.0)
        s = np.linspace(-5, 5, 11)
        assert np.array_equal(r(s, ctx0), s)
        assert h(3.0, ctx0) == 3.0


class TestContext:
    def test_invalid_context(self):
        with pytest.raises(InvalidParams):
            TransformContext(-1.0)


class TestNonlinearity:
    def test_f_at_zero(self):
        assert f_omega(0.0, 0.7, 3.0, CTX1) == 0.0

    def test_small_s_expansion(self):
        # f_omega(s) = s^p - omega s + O(delta omega s^3) since r(s)/s -> 1
        s, omega, p = 1e-3, 0.7, 3.0
        val = f_omega(s, omega, p, CTX1)
        assert val == pytest.approx(s ** p - omega * s,
                                    abs=2 * omega * s ** 3)

    def test_primitive_by_quadrature(self):
        for s_end in (0.5, 2.0, 10.0):
            for omega in (0.0, 0.7):
                expected, _ = quad(
                    lambda s: f_omega(s, omega, 3.0, CTX1), 0.0, s_end,
                    limit=200)
                assert abs(F_omega(s_end, omega, 3.0, CTX1) - expected) < 1e-8

    def test_derivative_by_differencing(self):
        for s in (0.25, 1.5, 7.0):
            eps = 1e-6
            fd = (f_omega(s + eps, 0.7, 3.0, CTX1)
                  - f_omega(s - eps, 0.7, 3.0, CTX1)) / (2 * eps)
            assert fd == pytest.approx(f_omega_prime(s, 0.7, 3.0, CTX1),
                                       rel=1e-7)

    def test_s_star_is_the_zero_of_F(self):
        omega, p = 0.7, 3.0
        star = s_star(omega, p, CTX1)
        assert F_omega(star, omega, p, CTX1) == pytest.approx(0.0, abs=1e-14)
        # root-find independently and compare
        bracket = brentq(lambda s: F_omega(s, omega, p, CTX1), 1e-6, 100.0)
        assert star == pytest.approx(bracket, rel=1e-10)
        beyond = np.linspace(star * 1.001, star * 10, 50)
        assert np.all(F_omega(beyond, omega, p, CTX1) > 0)

    def test_zero_mass_upper_bound(self):
        # f_0(s) <= C_0 s^{(p-1)/2} with a uniform constant
        p = 3.0
        s = np.geomspace(1e-3, 1e6, 400)
        ratio = f_omega(s, 0.0, p, CTX1) / s ** ((p - 1) / 2)
        assert np.all(np.isfinite(ratio))
        assert ratio.max() < 2.0 * (2.0 / CTX1.delta) ** (p / 4)


@settings(max_examples=150, deadline=None)
@given(delta=st.floats(1e-3, 1e3), t=st.floats(0.0, 1e3))
def test_inverse_roundtrip_property(delta, t):
    ctx = TransformContext(delta)
    assert r(h(t, ctx), ctx) == pytest.approx(t, rel=1e-10, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(delta=st.floats(1e-3, 1e3), s=st.floats(1e-9, 1e6))
def test_sandwich_property(delta, s):
    ctx = TransformContext(delta)
    rr = r(s, ctx)
    mid = s / math.sqrt(1 + 2 * delta * rr * rr)
    assert 0.5 * rr <= mid * (1 + 1e-12)
    assert mid <= rr * (1 + 1e-12)
    assert abs(r_prime(s, ctx)) <= 1.0
