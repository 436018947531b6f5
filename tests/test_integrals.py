import math
from dataclasses import replace

import numpy as np
import pytest

from qground.errors import ConstraintViolated, Divergent, InvalidParams
from qground.integrals import (compute_diagnostics, dirichlet_integral,
                               dual_pohozaev_residual, integrate_radial,
                               level_m_omega, nehari_residual,
                               pohozaev_residual, profile_moment,
                               quasi_gradient_integral, sobolev_constant,
                               sphere_area)
from qground.params import Decay, Params, RadialProfile, make_grid
from qground.transform import F_omega_u

from appendix import (critical_key_residual, gn_check, gn_ratio,
                      moser_bound_check, radial_decay_check, sample_bubble)


#: the grids of the cubic problem in 3D at omega = 1 and at omega = 0
UNIT = Params(3, 3, 1.0, 1.0)
ZERO_MASS = Params(3, 3, 1.0, 0.0)


class TestQuadratureCore:
    def test_zero(self):
        grid = make_grid(UNIT, 256)
        assert integrate_radial(np.zeros_like(grid.nodes), grid, 3) == 0.0

    def test_gaussian(self):
        # int_{R^3} e^{-|x|^2} dx = pi^{3/2}
        grid = make_grid(UNIT, 1024)
        val = integrate_radial(np.exp(-grid.nodes ** 2), grid, 3)
        assert val == pytest.approx(math.pi ** 1.5, rel=1e-10)

    def test_simpson_order(self):
        # halving the spacing cuts the error by ~2^4 (the ratio approaches
        # 16 from below on this integrand; require measured order >= 3.9)
        exact = 8.0 * math.pi   # int_{R^3} e^{-|x|} dx
        errs = []
        for res in (128, 256, 512):
            grid = make_grid(UNIT, res)
            val = integrate_radial(np.exp(-grid.nodes), grid, 3)
            errs.append(abs(val - exact))
        assert math.log2(errs[0] / errs[1]) >= 3.9
        assert math.log2(errs[1] / errs[2]) >= 3.9

    def test_sphere_area(self):
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)
        assert sphere_area(4) == pytest.approx(2 * math.pi ** 2)


def _synthetic_profile(dim, resolution=1024):
    """u = (1 + rho^2)^{-(N-2)/2}, which decays like rho^{-(N-2)}, with its
    exact power tail."""
    grid = make_grid(ZERO_MASS, resolution)
    rho = grid.nodes
    u = (1.0 + rho ** 2) ** (-(dim - 2) / 2.0)
    up = -(dim - 2) * rho * (1.0 + rho ** 2) ** (-dim / 2.0)
    decay = Decay(dim, amplitude=1.0, match_radius=grid.r_max)
    return RadialProfile(grid=grid, values=u, derivative_values=up, decay=decay)


class TestTails:
    def test_exponential_tail_past_r_max_is_negligible(self, super53):
        # R_max >= 15/sqrt(omega), so the K_nu tail beyond it is dropped
        from scipy.integrate import quad

        u, dim = super53.u, super53.params.dim
        r_max = u.grid.r_max
        for k in (2.0, super53.params.p + 1.0):
            past = sphere_area(dim) * quad(
                lambda t: t ** (dim - 1) * u.decay.value(t) ** k,
                r_max, np.inf)[0]
            assert 0.0 < past < 1e-12 * profile_moment(u, k, dim)
            assert u.decay.moment(k, r_max) == 0.0
            assert u.decay.gradient_moment(k, r_max) == 0.0

    def test_power_tail_divergence(self):
        profile = _synthetic_profile(4)
        with pytest.raises(Divergent):
            profile_moment(profile, 2.0, 4)    # int u^2 diverges for N = 4

    def test_power_tail_convergent_moment(self):
        # u = (1 + rho^2)^{-3/2} in R^5: int u^2 = |S^4| * 3 pi / 16, with
        # the [R_max, inf) stretch carried by the closed-form tail (~1e-3
        # of the total), so this exercises the core + tail stitch for real
        profile = _synthetic_profile(5)
        val = profile_moment(profile, 2.0, 5)
        expected = sphere_area(5) * 3.0 * math.pi / 16.0
        assert val == pytest.approx(expected, rel=1e-8)


class TestIdentities:
    def test_ground_state_closure(self, nls33, crit3):
        for rep in (nls33, crit3):
            d = rep.diagnostics
            assert pohozaev_residual(d, rep.params) < 1e-6
            assert nehari_residual(d, rep.params) < 1e-6

    def test_perturbed_profile_fails(self, nls33):
        # negative control: a 1% multiplicative bump breaks the identities
        u = nls33.u
        rho = u.grid.nodes
        bump = 1.0 + 0.01 * rho * np.exp(-rho)
        dbump = 0.01 * np.exp(-rho) * (1.0 - rho)
        perturbed = RadialProfile(
            grid=u.grid, values=u.values * bump,
            derivative_values=u.derivative_values * bump + u.values * dbump,
            decay=u.decay)
        d = compute_diagnostics(perturbed, nls33.params)
        assert pohozaev_residual(d, nls33.params) > 1e-3

    def test_critical_key_estimate(self, crit3):
        assert critical_key_residual(crit3.diagnostics, crit3.params) < 1e-6

    def test_beta_identity(self, super53, crit3):
        # ((3N+2)/(N-2) - p) beta / (p+1) = 1 + (N+2)/(N-2) omega M / T
        for rep in (super53, crit3):
            n, p = rep.params.dim, rep.params.p
            d = rep.diagnostics
            lhs = ((3 * n + 2) / (n - 2) - p) * d.beta / (p + 1)
            rhs = 1 + (n + 2) / (n - 2) * rep.params.omega * d.mass / d.dirichlet
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_quasi_gradient_identity(self, super53):
        # 2 delta Q = (1 - 2*/(p+1)) T beta + 2/(N-2) omega M
        rep = super53
        n, p = rep.params.dim, rep.params.p
        d = rep.diagnostics
        two_star = 2 * n / (n - 2)
        lhs = 2 * rep.params.delta * d.quasi_grad
        rhs = (1 - two_star / (p + 1)) * d.dirichlet * d.beta \
            + 2 / (n - 2) * rep.params.omega * d.mass
        assert lhs == pytest.approx(rhs, rel=1e-6)


class TestLevel:
    def test_m_star_analytic(self):
        # the closed form equals the quadrature of the explicit bubble
        from qground.asymptotics import AubinTalenti

        for dim in (3, 4, 5):
            bubble = AubinTalenti(dim)
            grid = make_grid(ZERO_MASS, 2048)
            prof = sample_bubble(bubble, grid)
            t_val = dirichlet_integral(prof, dim)
            p_val = profile_moment(prof, 2 * dim / (dim - 2), dim)
            quotient = t_val / p_val ** ((dim - 2) / dim)
            assert quotient == pytest.approx(sobolev_constant(dim), rel=1e-8)

    @staticmethod
    def v_quadrature_level(rep):
        """Reference: (2* int F_omega)^(2/N) by quadrature of F_omega over
        the v profile, with the tail moments of its fitted decay."""
        params, v = rep.params, rep.v
        tail = v.decay.moment(params.p + 1.0, v.grid.r_max) / (params.p + 1.0)
        if params.omega > 0:
            tail -= 0.5 * params.omega * v.decay.moment(2.0, v.grid.r_max)
        int_f = integrate_radial(F_omega_u(rep.u.values, params), v.grid,
                                 params.dim, tail)
        return (params.two_star() * int_f) ** (2.0 / params.dim)

    def test_level_cross_check(self, crit3, sub32, super53, zero_mass53):
        # the level from T, Q, P and M equals the v-profile quadrature
        for rep in (crit3, sub32, super53, zero_mass53):
            val = level_m_omega(rep.diagnostics, rep.params)
            assert val == rep.diagnostics.m_omega
            assert val == pytest.approx(self.v_quadrature_level(rep),
                                        rel=1e-12)

    def test_level_cross_check_rejects(self, crit3):
        # the dual Pohozaev identity T + 2 delta Q = 2* int F_omega: off by
        # 1 % it fails its gate (the other gates read the report's stored
        # residuals, so they do not move with the diagnostics)
        d, params = crit3.diagnostics, crit3.params
        gates = {name: (res, tol) for name, res, tol in crit3.gates()}
        assert gates["dual Pohozaev"][0] < gates["dual Pohozaev"][1]
        broken = replace(d, dirichlet=1.01 * d.dirichlet,
                         quasi_grad=1.01 * d.quasi_grad)
        report = replace(crit3, diagnostics=broken)
        failed = [name for name, res, tol in report.gates()
                  if not res < tol]
        assert failed == ["dual Pohozaev"]
        assert not report.accepted()
        res = dual_pohozaev_residual(broken, params)
        assert res == pytest.approx(0.01 / 1.01, rel=1e-4)
        # it is the Pohozaev identity of u scaled by 2* T / (T + 2 delta Q)
        poh = pohozaev_residual(broken, params)
        t_v = broken.dirichlet + 2.0 * params.delta * broken.quasi_grad
        assert res == pytest.approx(
            params.two_star() * broken.dirichlet / t_v * poh, rel=1e-9)

    def test_level_needs_positive_base(self, crit3):
        # int F_omega <= 0 has no real level: a typed rejection, never a
        # complex power
        broken = replace(crit3.diagnostics, potential=0.0)
        with pytest.raises(ConstraintViolated, match="not positive"):
            level_m_omega(broken, crit3.params)

    def test_dual_gate_needs_dimension_three(self, townes, crit3):
        assert "dual Pohozaev" not in [g[0] for g in townes.gates()]
        assert "dual Pohozaev" in [g[0] for g in crit3.gates()]

    def test_profile_alone_has_no_level(self, crit3):
        d = compute_diagnostics(crit3.u, crit3.params)
        assert d.m_omega is None and d.m_star is None
        assert d.dirichlet == crit3.diagnostics.dirichlet

    def test_level_above_sobolev_constant(self, crit3):
        assert crit3.diagnostics.m_omega >= sobolev_constant(3)
        assert crit3.diagnostics.delta_omega >= 0

    def test_dimension_two_rejected(self, townes):
        with pytest.raises(InvalidParams):
            level_m_omega(townes.diagnostics, townes.params)


class TestAppendixChecks:
    def test_radial_decay_bound_on_ground_states(self, nls33, crit3):
        for rep in (nls33, crit3):
            two_star = 2 * rep.params.dim / (rep.params.dim - 2)
            assert radial_decay_check(rep.u, 2.0, rep.params.dim)
            assert radial_decay_check(rep.u, two_star, rep.params.dim)

    def test_spike_fails_decay_check(self):
        grid = make_grid(UNIT, 256)
        rho = grid.nodes
        spike = 5.0 * np.exp(-200.0 * (rho - 3.0) ** 2) + 1e-3 * np.exp(-rho)
        dspike = np.gradient(spike, rho)
        profile = RadialProfile(grid=grid, values=spike,
                                derivative_values=dspike,
                                decay=Decay(dim=3, rate=1.0, amplitude=0.0,
                                            match_radius=50.0))
        assert not radial_decay_check(profile, 2.0, 3)

    def test_gn_ratio(self, crit3):
        ratio = gn_ratio(crit3.u, 9.0, 6.0, 3)
        assert np.isfinite(ratio) and ratio > 0
        assert gn_check(crit3.u, 9.0, 6.0, 3)
        assert gn_check(crit3.u, 9.0, 6.0, 3, constant=2.0 * ratio)
        assert not gn_check(crit3.u, 9.0, 6.0, 3, constant=0.5 * ratio)

    def test_gn_preconditions(self, crit3):
        with pytest.raises(InvalidParams):
            gn_ratio(crit3.u, 20.0, 6.0, 3)   # q beyond 4N/(N-2)

    def test_moser_bound_check(self):
        heights = [(2.0 ** -k, 1.0 + 0.5 * 2.0 ** -k) for k in range(10)]
        assert moser_bound_check(heights)
        growing = [(2.0 ** -k, 1.0 + 0.1 * k) for k in range(10)]
        assert not moser_bound_check(growing)
        assert not moser_bound_check([])


class TestDiagnostics:
    def test_energy_definition(self, sub32):
        d = sub32.diagnostics
        expected = 0.5 * d.dirichlet + sub32.params.delta * d.quasi_grad \
            - d.potential / (sub32.params.p + 1)
        assert d.energy == pytest.approx(expected, rel=1e-14)

    def test_quasi_gradient_positive(self, sub32):
        assert quasi_gradient_integral(sub32.u, 3) > 0

    def test_beta_exceeds_one(self, sub32, crit3, super53):
        # Nehari forces P = T + 4 delta Q + omega M > T for omega > 0
        for rep in (sub32, crit3, super53):
            assert rep.diagnostics.beta > 1.0

    def test_zero_mass_low_dimension_mass_divergent(self):
        from qground.shooting import solve_ground_state

        rep = solve_ground_state(Params(4, 4, 1.0, 0.0))
        assert rep.diagnostics.mass is None
        assert compute_diagnostics(rep.u, rep.params).mass is None
