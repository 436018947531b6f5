import inspect
from fractions import Fraction

from dataclasses import fields

import numpy as np
import pytest

from qground.errors import InvalidParams
from scipy.special import iv

from qground.params import (CRITICAL, DECAY_EXPONENTIAL, DECAY_POWER,
                            MASS_CRITICAL_PLUS,
                            MASS_SUBCRITICAL, MAX_RESOLUTION, SUBCRITICAL,
                            SUPERCRITICAL, Decay, Params, RadialProfile,
                            classify, make_grid, sphere_area)
from qground.shooting import ShootingConfig
from qground.spectra import coarsen_profile

from appendix import is_positive_decreasing


class TestClassify:
    def test_critical_exact_integer(self):
        assert classify(Params(3, 5, 1.0, 1.0)).tag == CRITICAL

    def test_critical_exact_fraction(self):
        assert classify(Params(5, Fraction(7, 3), 1.0, 1.0)).tag == CRITICAL
        assert classify(Params(5, "7/3", 1.0, 1.0)).tag == CRITICAL

    def test_decimal_near_critical_uses_window(self):
        assert classify(Params(3, 5.0, 1.0, 1.0)).tag == CRITICAL
        assert classify(Params(3, 5.0 + 1e-13, 1.0, 1.0)).tag == CRITICAL
        assert classify(Params(3, 5.001, 1.0, 1.0)).tag == SUPERCRITICAL

    def test_fraction_close_but_not_equal_is_not_critical(self):
        # 2333/1000 is within 4e-4 of 7/3 but rationally distinct
        assert classify(Params(5, Fraction(2333, 1000), 1.0, 1.0)).tag \
            == SUBCRITICAL

    def test_dimension_two_always_subcritical(self):
        assert classify(Params(2, 7, 1.0, 1.0)).tag == SUBCRITICAL
        assert classify(Params(2, 50, 1.0, 1.0)).tag == SUBCRITICAL

    def test_existence_bound_rejected(self):
        with pytest.raises(InvalidParams):
            Params(3, 11, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            Params(3, 12, 1.0, 1.0)
        # just under the bound is fine
        Params(3, Fraction(11, 1) - Fraction(1, 1000), 1.0, 1.0)

    def test_mass_tags(self):
        assert classify(Params(3, 2, 1.0, 1.0)).mass_tag == MASS_SUBCRITICAL
        # p = 1 + 4/N exactly is still mass-subcritical (increasing mass)
        assert classify(Params(3, Fraction(7, 3), 1.0, 1.0)).mass_tag \
            == MASS_SUBCRITICAL
        assert classify(Params(3, 3, 1.0, 1.0)).mass_tag is None
        assert classify(Params(2, 5, 1.0, 1.0)).mass_tag == MASS_CRITICAL_PLUS

    def test_thresholds_are_rational(self):
        params = Params(3, 2, 1.0, 1.0)
        assert params.p_critical() == Fraction(5)
        assert params.p_mass_critical() == Fraction(7, 3)
        assert params.p_blowup() == Fraction(13, 3)

    def test_basic_invariants(self):
        with pytest.raises(InvalidParams):
            Params(1, 3, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            Params(3, 1.0, 1.0, 1.0)
        with pytest.raises(InvalidParams):
            Params(3, 3, -0.5, 1.0)
        with pytest.raises(InvalidParams):
            Params(3, 3, 1.0, -1.0)

    @pytest.mark.parametrize("p, delta, omega", [
        (3, 1.0, float("nan")), (3, 1.0, float("inf")),
        (3, float("nan"), 1.0), (3, float("inf"), 1.0),
        (float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0),
        ("nan", 1.0, 1.0), ("inf", 1.0, 1.0), ("1/0", 1.0, 1.0),
    ])
    def test_non_finite_values_rejected(self, p, delta, omega):
        with pytest.raises(InvalidParams, match="finite"):
            Params(3, p, delta, omega)


def _grid(omega, resolution):
    """The grid of the (non-critical) cubic problem in 3D at omega."""
    return make_grid(Params(3, 3, 1.0, omega), resolution)


class TestGrid:
    def test_r_max_formula(self):
        assert _grid(1.0, 1024).r_max == 50.0
        assert _grid(0.01, 1024).r_max == pytest.approx(150.0)
        assert _grid(0.0, 1024).r_max == 1000.0

    def test_grid_scales_for_large_omega(self):
        # above omega = 1 the whole grid is the omega = 1 grid shrunk by
        # 1/sqrt(omega), the length scale of the profile
        unit, narrow = _grid(1.0, 1024), _grid(16.0, 1024)
        assert narrow.r_max == 12.5
        assert np.allclose(narrow.nodes, unit.nodes / 4.0, rtol=1e-9)

    def test_grid_comes_from_params_alone(self):
        # no caller overrides R_max: it spans 15 decay lengths by
        # construction, and a second route to it would bypass that
        assert list(inspect.signature(make_grid).parameters) \
            == ["params", "resolution"]
        assert [f.name for f in fields(ShootingConfig)] == ["resolution"]

    def test_resolution_rounds_up_to_a_multiple_of_four(self):
        # the M' Richardson levels halve the grid twice; every level must
        # keep its last node at R_max
        assert _grid(1.0, 1024).resolution == 1024
        assert _grid(1.0, 2048).resolution == 2048
        grid = _grid(1.0, 1026)
        assert grid.resolution == 1028
        zeros = np.zeros_like(grid.nodes)
        coarse = coarsen_profile(coarsen_profile(
            RadialProfile(grid=grid, values=zeros, derivative_values=zeros,
                          decay=Decay(dim=3, rate=1.0, amplitude=0.0))))
        assert coarse.grid.resolution == 257
        assert coarse.grid.nodes[-1] == coarse.grid.r_max == grid.r_max

    def test_structure(self):
        grid = _grid(1.0, 1024)
        assert grid.nodes[0] == 0.0
        assert grid.nodes[-1] == grid.r_max
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.resolution >= 64

    def test_minimum_resolution(self):
        with pytest.raises(InvalidParams):
            _grid(1.0, 32)

    def test_maximum_resolution(self):
        assert _grid(1.0, MAX_RESOLUTION).resolution == MAX_RESOLUTION
        for resolution in (MAX_RESOLUTION + 1, 10 ** 11):
            with pytest.raises(InvalidParams, match="resolution"):
                _grid(1.0, resolution)

    def test_jacobian_consistency(self):
        grid = _grid(0.25, 512)
        fd = np.gradient(grid.nodes, grid.xi)
        interior = slice(2, -2)
        assert np.allclose(fd[interior], grid.jacobian[interior], rtol=1e-3)

    def test_critical_core_scales_with_blowup_length(self):
        # tiny critical frequencies spread the core; node density must follow
        params = Params(3, 5, 1.0, 2.0 ** -24)
        wide = make_grid(params, 1024)
        narrow = _grid(params.omega, 1024)       # p = 3: not critical
        assert wide.r_max == narrow.r_max
        # more room in the core: the median node moves outward
        assert np.median(wide.nodes) > np.median(narrow.nodes)

    def test_stretch_limit_is_a_typed_error(self):
        # below omega ~ 1e-28 the core is a smaller fraction of R_max than
        # the largest stretch of the sinh map can resolve
        assert make_grid(Params(2, 3, 0.0, 1e-28), 64).alpha < 80.0
        for omega in (1e-29, 1e-300):
            with pytest.raises(InvalidParams, match="omega = .*R_max = "):
                make_grid(Params(2, 3, 0.0, omega), 64)


class TestDecay:
    def test_three_dimensional_law_is_exponential(self):
        # rho^{-1/2} K_{1/2}(kappa rho) = sqrt(pi/(2 kappa)) e^{-kappa rho}/rho
        law = Decay(dim=3, rate=0.5, amplitude=2.0)
        rho = np.array([1.0, 10.0, 400.0, 2000.0])
        expected = 2.0 * np.sqrt(np.pi) * np.exp(-0.5 * rho) / rho
        assert np.allclose(law.value(rho), expected, rtol=1e-13, atol=0.0)
        assert np.allclose(law.log_slope(rho), 0.5 + 1.0 / rho, rtol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_law_solves_the_linear_far_field(self, dim):
        # v'' + (N-1)/rho v' = omega v, checked on the law's own derivative
        omega = 0.3
        law = Decay(dim=dim, rate=np.sqrt(omega))
        rho, eps = np.linspace(2.0, 40.0, 7), 1e-5
        vpp = (law.derivative(rho + eps) - law.derivative(rho - eps)) / (2 * eps)
        lhs = vpp + (dim - 1) / rho * law.derivative(rho)
        assert np.allclose(lhs, omega * law.value(rho), rtol=1e-7, atol=0.0)
        assert np.allclose(law.derivative(rho),
                           -law.log_slope(rho) * law.value(rho), rtol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 7])
    def test_growing_splits_off_the_bessel_modes(self, dim):
        # B = 0 on rho^{-nu} K_nu(kappa rho) and B = 1 on rho^{-nu} I_nu
        kappa, nu = 0.7, (dim - 2) / 2.0
        law = Decay(dim=dim, rate=kappa, amplitude=3.0)
        for rho in (0.5, 5.0, 30.0):
            i = rho ** -nu * iv(nu, kappa * rho)
            ip = rho ** -nu * kappa * iv(nu + 1.0, kappa * rho)
            assert law.growing(rho, i, ip) == pytest.approx(1.0, rel=1e-13)
            # the growing part read off the law is rounding in v itself
            k, kp = law.value(rho), law.derivative(rho)
            assert abs(law.growing(rho, k, kp) * i) <= 1e-14 * k

    def test_growing_splits_off_the_power_modes(self):
        # B = 0 on rho^{-(N-2)} and B = 1 on the constant
        law = Decay(dim=5)                # rate 0: rho^{-3}
        for rho in (0.5, 5.0, 30.0):
            assert law.growing(rho, 2.0 * rho ** -3, -6.0 * rho ** -4) \
                == pytest.approx(0.0, abs=1e-15)
            assert law.growing(rho, 1.0, 0.0) == 1.0

    def test_matched_passes_through_the_point(self):
        law = Decay(dim=5, rate=0.2).matched(60.0, 1e-9)
        assert law.value(60.0) == pytest.approx(1e-9, rel=1e-14)
        assert law.match_radius == 60.0

    def test_dimension_is_required(self):
        # the Bessel order nu = (N-2)/2 depends on it
        with pytest.raises(TypeError):
            Decay(rate=1.0)

    def test_dimension_and_rate_fix_the_law(self):
        # a tail is a power law exactly when rate = 0, with exponent N - 2
        assert [f.name for f in fields(Decay)] == [
            "dim", "rate", "amplitude", "match_radius"]
        assert Decay(dim=3, rate=0.5).kind == DECAY_EXPONENTIAL
        law = Decay(dim=5)
        assert law.kind == DECAY_POWER
        assert law.log_slope(2.0) == 1.5
        with pytest.raises(AttributeError):
            law.kind = DECAY_EXPONENTIAL

    def test_power_tail_moments(self):
        # past rho = 10: v = 2 rho^{-3} in R^5, so v^2 rho^4 = 4 rho^{-2}
        # and (v')^2 rho^4 = 36 rho^{-4}
        law = Decay(dim=5, amplitude=2.0)
        assert law.moment(2.0, 10.0) == pytest.approx(
            sphere_area(5) * 4.0 / 10.0, rel=1e-14)
        assert law.gradient_moment(2.0, 10.0) == pytest.approx(
            sphere_area(5) * 36.0 / (3.0 * 10.0 ** 3), rel=1e-14)


class TestProfileCsv:
    def test_header_and_precision(self, nls33, tmp_path):
        nls33.u.to_csv(tmp_path / "u.csv")
        text = (tmp_path / "u.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "r,value,dvalue"
        assert len(lines) == len(nls33.u.grid.nodes) + 1
        # 17 significant digits round-trip
        r, v, dv = lines[2].split(",")
        assert float(v) == nls33.u.values[1]

    def test_profile_invariants(self, nls33):
        assert is_positive_decreasing(nls33.u)
        assert nls33.u.derivative_values[0] == 0.0
