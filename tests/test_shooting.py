import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qground.errors import (BracketFailure, ConstraintViolated, InvalidParams,
                            NoConvergence, NoGroundState)
from qground.params import Params
from qground import shooting
from qground.shooting import (_Shooter, nls_ground_state, series_start,
                              solve_ground_state)
from qground.transform import f_omega_u, h, r

from appendix import is_positive_decreasing

# frozen oracle values from tests/oracle.py (independent Radau shooting at
# bisection tolerance 1e-13, adaptive quadrature for the norms)
Q0_ORACLE = {(3, 3): 4.337387679976359, (2, 3): 2.206200864650384,
             (3, 2): 4.191682954437397}
TOWNES_MASS = 11.700896524543062


class TestNlsOracle:
    def test_heights_match_oracle(self):
        for (dim, p), expected in Q0_ORACLE.items():
            rep = nls_ground_state(dim, p)
            assert rep.shooting_height == pytest.approx(expected, rel=1e-9)

    def test_townes_mass(self, townes):
        assert townes.diagnostics.mass == pytest.approx(TOWNES_MASS, rel=1e-6)

    def test_pohozaev_closure(self, nls33):
        assert nls33.pohozaev_residual < 1e-8
        assert nls33.nehari_residual < 1e-8

    def test_invalid_exponent(self):
        with pytest.raises(InvalidParams):
            nls_ground_state(3, 5)

    def test_cache_returns_same_object(self):
        assert nls_ground_state(3, 3) is nls_ground_state(3, 3)


class TestScaling:
    def test_nls_scaling_law(self, nls33):
        # u_omega(x) = omega^{1/(p-1)} Q(sqrt(omega) x) exactly for delta = 0
        rep4 = solve_ground_state(Params(3, 3, 0.0, 4.0))
        x = rep4.u.grid.nodes
        x = x[2.0 * x <= nls33.u.grid.r_max]
        predicted = 2.0 * nls33.u(2.0 * x)
        assert np.max(np.abs(rep4.u.values[: len(x)] - predicted)) < 1e-6

    def test_mass_scaling(self, nls33):
        rep4 = solve_ground_state(Params(3, 3, 0.0, 4.0))
        expected = 4.0 ** ((4 - 3 * 2) / (2 * 2)) * nls33.diagnostics.mass
        assert rep4.diagnostics.mass == pytest.approx(expected, rel=1e-6)


class TestSeriesStart:
    """series_start launches u = r(v); h(u) carries the v-series."""

    def test_stationary_height(self):
        # f_omega(a) = 0 at r(a)^{p-1} = omega: the series is constant
        params = Params(3, 3, 1.0, 0.49)
        a = h(0.7, params)    # r(a) = 0.7, 0.7^2 = 0.49 = omega
        u, vp = series_start(a, params, 1e-3)
        assert h(u, params) == pytest.approx(a, rel=1e-12)
        assert vp == pytest.approx(0.0, abs=1e-12)

    def test_linear_coefficient(self):
        # N=3, a=1, omega=0, p=3, delta=0: f(1) = 1, v'(r0) = -r0/3 + O(r0^3)
        params = Params(3, 3, 0.0, 0.0)
        r0 = 1e-5
        _, vp = series_start(1.0, params, r0)
        assert vp == pytest.approx(-r0 / 3.0, rel=1e-9)

    def test_array_radii_match_scalar_calls(self):
        # the origin returns r(a) itself; an array of radii is one call
        params = Params(3, 2, 1.0, 1.0)
        radii = np.array([0.0, 1e-6, 3e-5, 1e-4])
        u, vp = series_start(5.9, params, radii)
        assert u[0] == r(5.9, params) and vp[0] == 0.0
        for i, r0 in enumerate(radii):
            u_i, vp_i = series_start(5.9, params, float(r0))
            assert u[i] == pytest.approx(u_i, rel=1e-15)
            assert vp[i] == pytest.approx(vp_i, rel=1e-15, abs=0.0)

    def test_matches_tiny_step_integration(self):
        # independent check: integrate from nearly zero with a tight solver
        params = Params(3, 3, 1.0, 0.8)
        a, r0 = 2.0, 1e-3

        def f_omega(s):
            return f_omega_u(r(s, params), params)

        def rhs(rho, y):
            return (y[1], -2.0 / rho * y[1] - f_omega(y[0]))

        seed = 1e-8
        sol = solve_ivp(rhs, (seed, r0), [a, -f_omega(a) * seed / 3.0],
                        method="Radau", rtol=1e-12, atol=1e-14)
        u, vp = series_start(a, params, r0)
        assert h(u, params) == pytest.approx(sol.y[0, -1], rel=1e-10)
        assert vp == pytest.approx(sol.y[1, -1], rel=1e-6)


class TestMonitor:
    """The height monitor phi(a) has the sign of a* - a, and its magnitude
    shrinks toward the height on both sides, for both decay laws."""

    @pytest.fixture(params=["sub32", "zero_mass53"])
    def solved(self, request):
        rep = request.getfixturevalue(request.param)
        return _Shooter(rep.params, rep.v.grid.r_max), rep.shooting_height

    def test_sign_splits_the_sides(self, solved):
        shooter, a = solved
        assert shooter.monitor(0.999 * a) > 0
        assert shooter.monitor(1.001 * a) < 0

    def test_magnitude_shrinks_toward_the_height(self, solved):
        shooter, a = solved
        for side in (-1.0, 1.0):
            mags = [abs(shooter.monitor(a * (1.0 + side * eps)))
                    for eps in (1e-3, 1e-6, 1e-9)]
            assert mags[0] > mags[1] > mags[2] > 0


class TestReports:
    def test_residual_gates(self, crit3, sub32, super53):
        for rep in (crit3, sub32, super53):
            assert rep.ode_residual < 1e-6 * abs(rep.shooting_height)
            assert rep.equivalence_residual < 1e-5
            assert rep.pohozaev_residual < 1e-6
            assert rep.nehari_residual < 1e-6
            assert rep.accepted()

    def test_profiles_positive_decreasing(self, crit3, super53):
        for rep in (crit3, super53):
            assert is_positive_decreasing(rep.v)
            assert is_positive_decreasing(rep.u)

    def test_u_is_r_of_v(self, crit3):
        # forward consistency: h(u) returns v to Newton tolerance
        back = h(crit3.u.values, crit3.params)
        scale = abs(crit3.shooting_height)
        assert np.max(np.abs(back - crit3.v.values)) < 1e-10 * scale
        assert np.all(crit3.u.values <= crit3.v.values + 1e-15)

    def test_exponential_tail_rate(self, nls33, townes, crit3, sub32,
                                   super53):
        # the K_nu law is exact in every dimension, N = 5 included; on
        # (7, 6/5, 1, 1) u^{p-1} is still ~10% of omega at R_max, and the
        # height puts the growing mode to 0 there, so the law holds at R_max
        slow = solve_ground_state(Params(7, Fraction(6, 5), 1.0, 1.0))
        assert slow.accepted()
        for rep in (nls33, townes, crit3, sub32, super53, slow):
            kappa = math.sqrt(rep.params.omega)
            assert rep.tail_rate_fit == pytest.approx(kappa, rel=1e-4)

    def test_tail_matches_nearest_the_law(self):
        # a far field whose -v'/v is off the K_nu law by a gap that varies
        # along rho: the tail is matched where the gap is smallest
        params = Params(3, 3, 0.0, 1.0)
        shooter = _Shooter(params, 50.0)
        t = np.linspace(20.0, 30.0, 6)
        gap = np.array([0.1, 0.01, 1e-4, 3e-3, 4e-3, 0.02])
        v = 1e-6 * shooter.law.value(t) / shooter.law.value(20.0)
        sol = SimpleNamespace(
            t=t, y=np.vstack([v, -(1.0 + gap) * shooter.law.log_slope(t) * v]))
        decay, rho_m, rate = shooting._fit_tail(shooter, sol, 1.0)
        assert rho_m == decay.match_radius == t[2]
        assert decay.value(rho_m) == pytest.approx(v[2], rel=1e-14)
        assert rate == pytest.approx(shooter.law.rate * (1.0 + 1e-4),
                                     rel=1e-14)

    def test_no_far_field_is_a_typed_error(self):
        # a final trajectory that never falls to 1e-5 of its height
        params = Params(3, 3, 0.0, 1.0)
        t = np.linspace(1.0, 5.0, 9)
        sol = SimpleNamespace(t=t, y=np.vstack([np.exp(-t), -np.exp(-t)]))
        with pytest.raises(ConstraintViolated, match="far field"):
            shooting._fit_tail(_Shooter(params, 50.0), sol, 1.0)

    def test_narrow_profile_grid_scales(self, townes):
        # the grid shrinks by 1/sqrt(omega) for omega > 1, so the exact
        # delta = 0 scaling carries the Nehari residual over unchanged
        rep = solve_ground_state(Params(2, 3, 0.0, 8.0))
        assert rep.accepted()
        assert rep.nehari_residual == pytest.approx(townes.nehari_residual,
                                                    rel=1e-3)

    def test_bracket_is_tight(self, crit3):
        lo, hi = crit3.bracket
        assert hi - lo <= 2e-13 * hi

    def test_iterations_counted(self, crit3):
        assert crit3.iterations > 10

    def test_tail_kind_follows_omega(self, super53, zero_mass53):
        assert super53.to_json_dict()["tail_kind"] == "exponential"
        assert zero_mass53.to_json_dict()["tail_kind"] == "power"

    def test_json_roundtrip(self, crit3):
        import json

        d = json.loads(crit3.to_json())
        assert d["schema"] == 1
        assert d["regime"] == "critical"
        assert d["pohozaev_residual"] < 1e-6


class TestDualState:
    """Trajectories integrate (u, v') with v = h(u); r = h^{-1} is never
    evaluated on the ODE right-hand side."""

    def test_inverse_of_h_off_the_rhs(self, monkeypatch):
        from qground import shooting, transform

        counts = {"scalar": 0, "array": 0, "h_scalar": 0, "integrations": 0,
                  "rhs": 0}
        r_inverse, ivp = transform.r, shooting.solve_ivp

        def count_r(s, params):
            counts["array" if np.ndim(s) else "scalar"] += 1
            return r_inverse(s, params)

        def count_ivp(*args, **kwargs):
            sol = ivp(*args, **kwargs)
            counts["integrations"] += 1
            counts["rhs"] += sol.nfev
            return sol

        class CountingMath:
            # every scalar evaluation of h inside transform goes through
            # math.asinh, including a Newton loop inlined anywhere there
            def __getattr__(self, name):
                return getattr(math, name)

            def asinh(self, x):
                counts["h_scalar"] += 1
                return math.asinh(x)

        monkeypatch.setattr(transform, "r", count_r)
        monkeypatch.setattr(transform, "math", CountingMath())
        monkeypatch.setattr(shooting, "solve_ivp", count_ivp)
        rep = solve_ground_state(Params(3, 2, 1.0, 1.0))
        assert rep.accepted()
        n = counts["integrations"]
        assert n > 10
        assert counts["rhs"] > 100 * n
        # one launch per integration and one for the series nodes of the
        # profile; one array call for the tail nodes
        assert counts["scalar"] == n + 1
        assert counts["array"] == 1
        tail_nodes = int(np.sum(rep.u.grid.nodes > rep.v.decay.match_radius))
        assert counts["h_scalar"] <= 10 * (n + 1 + tail_nodes)

    def test_one_vectorised_inverse_per_solve(self, monkeypatch, sub32):
        # the dual profile off the trajectory is the only array given in v;
        # the equivalence residual works on the sampled u
        from qground import transform

        calls = []
        r_vector = transform.r

        def count_r(s, params):
            if np.ndim(s):
                calls.append(s)
            return r_vector(s, params)

        monkeypatch.setattr(transform, "r", count_r)
        rep = solve_ground_state(sub32.params)
        assert rep.shooting_height == sub32.shooting_height
        assert len(calls) == 1

    @pytest.mark.parametrize("case, budget", [
        ((3, 2, 1.0, 1.0), 14), ((5, 3, 1.0, 0.0), 17),
        ((3, 7, 1.0, 0.0), 13)])
    def test_iterations_count_every_integration(self, monkeypatch, case,
                                                budget):
        # the root-find, bracket phase included, plus the final pass
        calls = []
        ivp = shooting.solve_ivp

        def count_ivp(*args, **kwargs):
            calls.append(1)
            return ivp(*args, **kwargs)

        monkeypatch.setattr(shooting, "solve_ivp", count_ivp)
        rep = solve_ground_state(Params(*case))
        assert rep.iterations + 1 == len(calls)
        assert len(calls) <= budget

    @pytest.mark.parametrize("fixture", ["super53", "zero_mass53"])
    def test_final_pass_is_the_monitor_trajectory(self, monkeypatch, request,
                                                  fixture):
        # the final pass integrates lo again, with the monitor's span and
        # events, so it ends bitwise where lo's monitor trajectory ended
        params = request.getfixturevalue(fixture).params
        calls = []
        ivp = shooting.solve_ivp

        def record_ivp(fun, t_span, y0, **kwargs):
            sol = ivp(fun, t_span, y0, **kwargs)
            calls.append((tuple(t_span), tuple(y0), sol.t[-1],
                          sol.y[:, -1].copy(), kwargs["dense_output"]))
            return sol

        monkeypatch.setattr(shooting, "solve_ivp", record_ivp)
        rep = solve_ground_state(params)
        *monitored, final = calls
        assert final[4] and not any(c[4] for c in monitored)
        lo_start = tuple(series_start(rep.bracket[0], params,
                                      shooting.START_RADIUS))
        assert final[1] == lo_start
        assert all(c[0] == final[0] for c in monitored)
        lo_call = [c for c in monitored if c[1] == lo_start]
        assert len(lo_call) == 1
        assert final[2] == lo_call[0][2]
        assert np.array_equal(final[3], lo_call[0][3])

    def test_exhausted_root_find_raises(self, monkeypatch):
        # the cold bracket of (3, 3, 0, 1) straddles the height at once, so
        # the budget runs out in the root-find, not in the bracket phase
        monkeypatch.setattr(shooting, "MAX_HEIGHT_STEPS", 5)
        with pytest.raises(NoConvergence, match="stalled"):
            solve_ground_state(Params(3, 3, 0.0, 1.0))

    @pytest.mark.parametrize("case", [(2, Fraction(51, 50), 1.0, 1.0),
                                      (3, Fraction(21, 20), 1.0, 1.0)])
    def test_near_p_one_is_a_typed_error(self, case):
        # near p = 1 R_max = 50 falls short of the linear far field: the
        # growing coefficient keeps one sign while the bracket phase climbs
        # to about 1e31, and the solve ends in a typed error
        with pytest.raises(BracketFailure, match="does not change sign"):
            solve_ground_state(Params(*case))

    def test_failed_gate_raises(self):
        # N = 2, p = 5 is limited by quadrature at resolution 1024: the
        # Nehari residual falls from 8.8e-6 to 5.4e-7 at 2048.  Only the
        # failed gates are named
        params = Params(2, 5, 0.0, 1.0)
        with pytest.raises(ConstraintViolated, match="Nehari residual") as info:
            solve_ground_state(params)
        assert "ODE" not in str(info.value)
        rep = solve_ground_state(params, shooting.ShootingConfig(2048))
        assert rep.accepted()

    @pytest.mark.parametrize("p", [Fraction(47, 4), 11])
    def test_overflowing_trajectory_is_a_typed_error(self, p):
        # the cold bracket's top, 10 s*, overflows |u|^{p-1} in the RHS
        with pytest.raises(BracketFailure, match="overflows"):
            solve_ground_state(Params(2, p, 0.0, 1.0))

    def test_underflowing_height_is_a_typed_error(self):
        # s* ~ omega^{1/(p-1)} = omega^128 underflows to 0, where the ODE's
        # absolute tolerance vanishes and an integration never ends
        with pytest.raises(BracketFailure, match="underflows"):
            solve_ground_state(Params(8, Fraction(129, 128), 0.0, 1e-8))

    def test_profile_inside_one_cell_is_a_typed_error(self):
        # supercritical at small delta: the profile falls to 1e-5 of its
        # height by rho = 0.054, inside the first cell at resolution 256
        with pytest.raises(ConstraintViolated, match="match radius"):
            solve_ground_state(Params(6, Fraction(235, 48), 0.0087, 0.24),
                               shooting.ShootingConfig(256))

    def test_unresolved_profile_is_a_typed_error(self, nls33):
        # no node past the origin above 1e-7 of the height: nothing left
        # for the equivalence residual to measure
        v = nls33.v
        scale = np.where(v.grid.nodes > 0, 1e-8, 1.0)
        flat = replace(v, values=scale * v.values)
        with pytest.raises(ConstraintViolated, match="1e-7"):
            shooting._equivalence_residual(nls33.params, flat, nls33.u)

    def test_cold_solves_within_sixteen_integrations(self, nls33, townes,
                                                     crit3, sub32, super53):
        for rep in (nls33, townes, crit3, sub32, super53):
            assert rep.iterations + 1 <= 16

    def test_v_is_h_of_u(self, sub32, crit3, super53):
        # u and v agree to rounding on every node, tail nodes included
        eps = np.finfo(float).eps
        for rep in (sub32, crit3, super53):
            err = np.abs(h(rep.u.values, rep.params) - rep.v.values)
            assert np.all(err <= 4.0 * eps * np.abs(rep.v.values))

    def test_heights_pinned(self, sub32, crit3, super53):
        # the heights given by integrating (v, v'), at the default config
        for rep, height in ((sub32, 5.92681009138626),
                            (crit3, 1.51394383787257),
                            (super53, 2.76245534379522)):
            assert rep.shooting_height == pytest.approx(height, rel=1e-10)


class TestZeroMass:
    def test_supercritical_only(self):
        with pytest.raises(NoGroundState):
            solve_ground_state(Params(3, 2, 1.0, 0.0))
        with pytest.raises(NoGroundState):
            solve_ground_state(Params(3, 5, 1.0, 0.0))  # critical: no solution
        with pytest.raises(NoGroundState):
            solve_ground_state(Params(2, 3, 1.0, 0.0))

    @pytest.mark.parametrize("case", [(7, 2, 0.0, 1.0),
                                      (6, 3, 0.0, 2.0 ** -4),
                                      (7, Fraction(9, 5), 0.0, 1.0),
                                      (5, 3, 0.0, 0.0)])
    def test_nls_beyond_sobolev_has_no_ground_state(self, monkeypatch, case):
        # Pohozaev: delta = 0 and p >= (N+2)/(N-2) admit no ground state,
        # which is decided before any grid is built or trajectory integrated
        def forbidden(*args, **kwargs):
            raise AssertionError("integrated or built a grid")

        monkeypatch.setattr(shooting, "solve_ivp", forbidden)
        monkeypatch.setattr(shooting, "make_grid", forbidden)
        with pytest.raises(NoGroundState, match="delta = 0"):
            solve_ground_state(Params(*case))

    def test_power_tail(self):
        rep = solve_ground_state(Params(3, 7, 1.0, 0.0))
        # rho^{N-2} u approaches a positive constant before the match radius
        rho_m = rep.v.decay.match_radius
        rho = np.linspace(rho_m / 3.0, rho_m * 0.98, 64)
        c_vals = rho ** (rep.params.dim - 2) * rep.u(rho)
        assert c_vals.min() > 0
        assert np.ptp(c_vals) / c_vals.mean() < 0.01
        assert rep.tail_rate_fit == pytest.approx(rep.params.dim - 2, rel=1e-3)

    def test_zero_mass_diagnostics(self, zero_mass53):
        assert zero_mass53.pohozaev_residual < 1e-6
        assert zero_mass53.nehari_residual < 1e-6
        assert zero_mass53.diagnostics.mass is not None  # N = 5: finite mass

    def test_r_max_convergence_study(self, monkeypatch):
        # halving/doubling R_max moves the mass by < 1e-6 relative
        masses = {}
        for r_max in (500.0, 1000.0, 2000.0):
            monkeypatch.setattr("qground.params.ZERO_MASS_R_MAX", r_max)
            rep = solve_ground_state(Params(5, 3, 1.0, 0.0))
            assert rep.u.grid.r_max == r_max
            masses[r_max] = rep.diagnostics.mass
        base = masses[1000.0]
        assert abs(masses[500.0] - base) / base < 1e-6
        assert abs(masses[2000.0] - base) / base < 1e-6


class TestWarmStart:
    def test_warm_reproduces_cold(self):
        params = Params(3, 2, 1.0, 0.5)
        cold = solve_ground_state(params)
        from qground.branch import scaled_height_guess

        anchor = solve_ground_state(Params(3, 2, 1.0, 1.0))
        guess = scaled_height_guess(anchor.shooting_height, 1.0, 0.5, params)
        warm = solve_ground_state(params, guess=guess)
        assert warm.shooting_height == pytest.approx(cold.shooting_height,
                                                     rel=1e-10)

    def test_exact_scaling_needs_almost_no_bisection(self, nls33):
        from qground.branch import scaled_height_guess

        params = Params(3, 3, 0.0, 0.5)
        guess = scaled_height_guess(nls33.shooting_height, 1.0, 0.5, params)
        warm = solve_ground_state(params, guess=guess)
        assert warm.iterations <= 5
