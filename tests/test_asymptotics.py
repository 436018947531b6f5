import math

import numpy as np
import pytest

from qground.asymptotics import (AubinTalenti, MassCurvePoint, aitken_limit,
                                 bubble_distance, energy_identity_residuals,
                                 extract_lambda, fit_power_law,
                                 sorted_points)
from qground.errors import (InsufficientWindow, InvalidParams, RegimeMismatch)
from qground.integrals import sobolev_constant
from qground.params import Params, make_grid


def lane_emden_residual(bubble: AubinTalenti, rho) -> float:
    """Sup of |Lap U + U^{(N+2)/(N-2)}| evaluated from closed forms."""
    n = bubble.dim
    rho = np.asarray(rho, dtype=float)
    rho = rho[rho > 0]
    s = 1.0 + rho ** 2 / (n * (n - 2.0))
    upp = -(1.0 / n) * s ** (-n / 2.0) \
        + (rho ** 2 / (n * (n - 2.0))) * s ** (-n / 2.0 - 1.0)
    lap = upp + (n - 1) / rho * bubble.derivative(rho)
    res = lap + bubble.value(rho) ** ((n + 2.0) / (n - 2.0))
    return float(np.max(np.abs(res)))


class TestBubble:
    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_normalization_and_residual(self, dim):
        bubble = AubinTalenti(dim)
        assert bubble.value(0.0) == 1.0
        rho = np.geomspace(1e-3, 100.0, 400)
        assert lane_emden_residual(bubble, rho) < 1e-10

    def test_w_critical_norm_is_one(self):
        # int W^{2*} = 1 with W = U(sqrt(m_*) x)
        from qground.integrals import profile_moment
        from qground.params import DECAY_POWER, Decay, RadialProfile

        for dim in (3, 5):
            bubble = AubinTalenti(dim)
            grid = make_grid(0.0, 2048)
            s = math.sqrt(bubble.m_star)
            w_vals = bubble.value(s * grid.nodes)
            w_der = s * bubble.derivative(s * grid.nodes)
            amp = (dim * (dim - 2.0)) ** ((dim - 2.0) / 2.0) / s ** (dim - 2)
            profile = RadialProfile(
                grid=grid, values=w_vals, derivative_values=w_der,
                decay=Decay(kind=DECAY_POWER, exponent=float(dim - 2),
                            amplitude=amp, match_radius=grid.r_max, dim=dim))
            val = profile_moment(profile, 2.0 * dim / (dim - 2), dim)
            assert val == pytest.approx(1.0, rel=1e-8)

    def test_grad_norm_closed_form(self):
        # |grad U|_2^2 = m_*^{N/2}
        from qground.integrals import dirichlet_integral

        bubble = AubinTalenti(3)
        prof = bubble.sample(make_grid(0.0, 2048))
        assert dirichlet_integral(prof, 3) == pytest.approx(
            bubble.m_star ** 1.5, rel=1e-8)

    def test_dimension_two_rejected(self):
        with pytest.raises(InvalidParams):
            AubinTalenti(2)


class TestRescaling:
    def test_extract_lambda_pinned_at_origin(self, crit3):
        lam = extract_lambda(crit3.u, crit3.params)
        n = crit3.params.dim
        rescaled_origin = lam ** ((n - 2) / 2.0) * crit3.u(0.0)
        assert rescaled_origin == pytest.approx(1.0, rel=1e-12)

    def test_unit_height_gives_unit_lambda(self, crit3):
        # synthetic: a profile with u(0) = 1 has lambda = 1
        u = crit3.u
        scaled = type(u)(grid=u.grid, values=u.values / u.values[0],
                         derivative_values=u.derivative_values / u.values[0],
                         decay=u.decay)
        assert extract_lambda(scaled, crit3.params) == pytest.approx(1.0)

    def test_bubble_distance_decreases(self):
        from qground.shooting import solve_ground_state

        dists = []
        for k in (8, 12):
            rep = solve_ground_state(Params(3, 5, 1.0, 2.0 ** -k))
            dists.append(bubble_distance(rep.u, rep.params))
        assert dists[1] < dists[0]


class TestFits:
    def test_power_law_recovery(self):
        w = np.geomspace(1e-5, 1e-2, 12)
        vals = 3.7 * w ** -0.75
        fit = fit_power_law(w, vals)
        assert fit.exponent == pytest.approx(-0.75, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.7, rel=1e-12)
        assert fit.r_squared > 0.999999

    def test_log_model_recovery_and_preference(self):
        w = np.geomspace(1e-8, 1e-3, 16)
        vals = 2.0 * w ** -0.5 * np.log(1.0 / w) ** 0.5
        pure = fit_power_law(w, vals)
        logm = fit_power_law(w, vals, log_exponent=0.5)
        assert logm.exponent == pytest.approx(-0.5, abs=1e-12)
        assert logm.aicc < pure.aicc
        assert pure.exponent != pytest.approx(-0.5, abs=1e-3)  # eats the log

    def test_window_guards(self):
        with pytest.raises(InsufficientWindow):
            fit_power_law([0.1, 0.2], [1.0, 2.0])
        with pytest.raises(InvalidParams):
            fit_power_law([0.1, 0.2, 0.4], [1.0, -2.0, 3.0])
        with pytest.raises(InvalidParams):
            fit_power_law([0.5, 1.0, 2.0], [1.0, 2.0, 3.0], log_exponent=0.5)


class TestExtrapolation:
    def test_aitken_exact_on_geometric(self):
        limit, c, q = 7.0, 2.5, 0.5
        seq = [limit + c * q ** k for k in range(6)]
        assert aitken_limit(seq) == pytest.approx(limit, rel=1e-12)

    def test_aitken_needs_three(self):
        with pytest.raises(InsufficientWindow):
            aitken_limit([1.0, 2.0])


def _synthetic_branch(masses_energies):
    pts = []
    for omega, mass, energy in masses_energies:
        pts.append(MassCurvePoint(
            omega=omega, mass=mass, mprime_fd=None, mprime_res=None,
            dirichlet=1.0, beta=1.0, quasi_grad=1.0, energy=energy,
            m_omega=None, lambda_omega=None, regime="subcritical"))
    return pts


class TestEnergyIdentity:
    def test_residual_vanishes_for_consistent_data(self):
        # E' = -(omega/2) M' holds exactly for M = w^{-1/2}, E = -w^{1/2}/2
        # (then E' = -1/4 w^{-1/2} and -(w/2) M' = +... sign check below)
        omegas = np.geomspace(0.01, 1.0, 15)
        masses = omegas ** -0.5
        energies = -(omegas ** 0.5)
        # E' = -0.5 w^{-1/2}; -(w/2) M' = -(w/2)(-0.5 w^{-3/2}) = 0.25 w^{-1/2}
        # so scale E to make the identity exact: E = 0.5 w^{1/2}
        energies = 0.5 * omegas ** 0.5
        pts = _synthetic_branch(zip(omegas, masses, energies))
        res = energy_identity_residuals(pts)
        assert max(res) < 1e-4

    def test_sorted_points(self):
        pts = _synthetic_branch([(0.5, 1.0, 0.0), (1.0, 2.0, 0.0),
                                 (0.25, 3.0, 0.0)])
        assert [q.omega for q in sorted_points(pts)] == [0.25, 0.5, 1.0]


class TestRegimeGuards:
    def test_subcritical_check_rejects_wrong_regime(self, nls33):
        from qground.asymptotics import subcritical_expansion_check

        with pytest.raises(RegimeMismatch):
            subcritical_expansion_check([], nls33, Params(3, 5, 1.0, 0.5))

    def test_critical_check_rejects_wrong_regime(self):
        from qground.asymptotics import critical_scaling_report

        with pytest.raises(RegimeMismatch):
            critical_scaling_report([], Params(3, 2, 1.0, 0.5))

    def test_critical_check_needs_three_decades(self):
        from qground.asymptotics import critical_scaling_report

        pts = []
        for k in range(4, 9):
            pts.append(MassCurvePoint(
                omega=2.0 ** -k, mass=1.0, mprime_fd=None, mprime_res=-1.0,
                dirichlet=1.0, beta=1.0, quasi_grad=1.0, energy=0.0,
                m_omega=6.0, lambda_omega=1.0, regime="critical"))
        with pytest.raises(InsufficientWindow):
            critical_scaling_report(pts, Params(3, 5, 1.0, 0.5))

    def test_supercritical_check_rejects_wrong_regime(self, nls33):
        from qground.asymptotics import supercritical_limit_check

        with pytest.raises(RegimeMismatch):
            supercritical_limit_check([], nls33, Params(3, 2, 1.0, 0.5))


def test_sobolev_constant_frozen_values():
    # pi N (N-2) (Gamma(N/2)/Gamma(N))^(2/N), cross-checked with mpmath
    assert sobolev_constant(3) == pytest.approx(5.477904089531332, rel=1e-14)
    assert sobolev_constant(4) == pytest.approx(10.260398641294913, rel=1e-14)
    assert sobolev_constant(5) == pytest.approx(14.811911720005934, rel=1e-14)
