"""Radial shooting for the dual semilinear problem -Delta v = f_omega at v.

The positive decaying solution is the center height v(0) = a* between
trajectories that cross zero (a > a*) and trajectories that turn back up
(a < a*).  The height is the root of one signed, continuous monitor phi(a):
the coefficient B of the growing mode when the exit state (v, v') is split
over the two solutions of the linear far field, rho^{-nu} K_nu(sqrt(omega)
rho) and rho^{-nu} I_nu(sqrt(omega) rho) for omega > 0, rho^{2-N} and 1 for
omega = 0 (params.Decay.growing).  A trajectory exits at a crossing, a turn
or the exit radius (R_max; 0.35 R_max for omega = 0), so phi < 0 above a*,
phi > 0 below it, and phi is close to linear through it.  A bracket phase
grows [lo, hi] geometrically until phi changes sign, and Brent's method
(scipy.optimize.brentq) shrinks it to a relative width of HEIGHT_RTOL; the
ground state is non-degenerate, so a* is a simple root.
Each trajectory integrates (u, w = v') with v = h(u) and h'(u) closed form:

    u' = w / h'(u),    w' = -(N-1)/rho w - (|u|^{p-1} u - omega u) / h'(u),

so the right-hand side never inverts h (at delta = 0 it is the NLS system);
r = h^{-1} runs once per launch, on the height (the launch series carries
u = r(v) in closed form from there).  The final pass is the root-find's own
trajectory at the accepted end lo of the bracket, integrated again with its
interpolant kept.  Beyond the matching radius the profile is extended by
the fitted analytic tail:

    omega > 0:  v = A rho^{-nu} K_nu(sqrt(omega) rho),  nu = (N-2)/2
    omega = 0:  v = c rho^{-(N-2)}   (zero-mass problem, supercritical only)

both laws of params.Decay, which alone evaluates them.  The match radius
for omega > 0 is the far-field point whose measured -v'/v is nearest the
law, and the exit radius for omega = 0 (see _fit_tail).

The ground state u is read off the launch series and the trajectory, and
v = h(u) there; beyond the matching radius v is the fitted tail and u = r(v).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import integrals, transform
from .errors import (AmbiguousTrajectory, BracketFailure,
                     ConstraintViolated, NoConvergence, NoGroundState)
from .params import (Decay, Params, RadialGrid, RadialProfile, Regime,
                     classify, make_grid)

#: start of integration; the (N-1)/rho singularity is bridged by a series
START_RADIUS = 1e-4
#: fraction of R_max where zero-mass trajectories exit and meet the tail
ZERO_MASS_MATCH_FRACTION = 0.35
#: relative width of the final height bracket
HEIGHT_RTOL = 1e-13
#: DOP853 relative tolerance, and absolute tolerance as a fraction of a
ODE_RTOL = 1e-11
ODE_ATOL_REL = 1e-13
#: monitor evaluations allowed to each of the bracket and root-find phases
MAX_HEIGHT_STEPS = 100
#: Pohozaev, Nehari and dual Pohozaev residuals below which a solve is
#: accepted
IDENTITY_TOL = 1e-6


@dataclass(frozen=True)
class ShootingConfig:
    """The grid resolution; make_grid derives the rest of the grid from
    Params."""

    resolution: int = 1024


def series_start(a: float, params: Params, r0) -> tuple:
    """Taylor launch values (u, v') at r0 (a float or an array) for the
    regular solution with v(0) = a, v'(0) = 0.

    v(r) = a - f(a) r^2 / (2N) + f'(a) f(a) r^4 / (8N(N+2)) + O(r^6), and
    u = r(v) follows from b = r(a) by r' = 1/h'(b), r'' = -2 delta b/h'(b)^4,
    so h is inverted once and the truncation stays O(r^6).
    """
    b = transform.r(a, params)
    fa = transform.f_omega_u(b, params)
    fpa = transform.f_omega_prime_u(b, params)
    hp = transform.h_prime(b, params)
    n = params.dim
    c2 = -fa / (2.0 * n)
    c4 = fpa * fa / (8.0 * n * (n + 2.0))
    dv = c2 * r0 * r0 + c4 * r0 ** 4
    u = b + dv / hp - params.delta * b * (c2 * r0 * r0) ** 2 / hp ** 4
    vp = 2.0 * c2 * r0 + 4.0 * c4 * r0 ** 3
    return u, vp


class _Shooter:
    """One (params, R_max) shooting context: the RHS, the events, the
    monitor's far-field law and exit radius, and the integration count."""

    def __init__(self, params: Params, r_max: float):
        self.params = params
        self.s_star = transform.s_star(params)
        self.integrations = 0
        n = params.dim
        self.law = Decay(n, math.sqrt(params.omega))
        self.r_exit = r_max if params.omega > 0 \
            else ZERO_MASS_MATCH_FRACTION * r_max
        two_delta, pm1, omega = 2.0 * params.delta, params.p - 1.0, params.omega

        def rhs(rho, y):
            u, w = y.tolist()
            root = math.sqrt(1.0 + two_delta * u * u)
            return (w / root,
                    -(n - 1) / rho * w - (abs(u) ** pm1 * u - omega * u) / root)

        self.rhs = rhs

        # terminal events: v crossing zero, and v' turning positive
        def cross(rho, y):
            return y[0]
        cross.terminal, cross.direction = True, -1

        def turn(rho, y):
            return y[1]
        turn.terminal, turn.direction = True, 1

        self.events = [cross, turn]

    def integrate(self, a: float, dense: bool = False):
        """The trajectory of height a, from START_RADIUS to the exit radius
        or the first crossing or turn; `dense` keeps its interpolant."""
        y0 = series_start(a, self.params, START_RADIUS)
        try:
            return solve_ivp(
                self.rhs, (START_RADIUS, self.r_exit), y0, method="DOP853",
                rtol=ODE_RTOL, atol=ODE_ATOL_REL * a, events=self.events,
                dense_output=dense)
        except OverflowError as exc:
            raise BracketFailure(f"height {a!r} overflows the RHS") from exc

    def monitor(self, a: float) -> float:
        """phi(a): the growing far-field coefficient B of the exit state,
        positive below the height a*, negative above, 0 on it."""
        self.integrations += 1
        sol = self.integrate(a)
        u, vp = sol.y[:, -1].tolist()
        return self.law.growing(sol.t[-1], transform.h(u, self.params), vp)

    # -- the height root-find -----------------------------------------------

    def initial_bracket(self, guess: Optional[float]) -> tuple[float, float]:
        # the ODE's absolute tolerance, ODE_ATOL_REL a, must be a normal double
        if self.params.omega > 0 and not (
                ODE_ATOL_REL * self.s_star >= np.finfo(float).tiny):
            raise BracketFailure(f"s* = {self.s_star!r} underflows the ODE")
        if guess is not None:
            # the NLS scaling law is exact at delta = 0, a few percent off
            # otherwise; expand_bracket repairs a one-sided guess
            margin = 5e-13 if self.params.delta == 0.0 else 0.05
            return guess * (1.0 - margin), guess * (1.0 + margin)
        if self.params.omega > 0:
            return self.s_star, 10.0 * self.s_star
        return 1.0, 2.0

    def expand_bracket(self, lo: float, hi: float):
        """Grow [lo, hi] until phi(lo) >= 0 >= phi(hi); returns
        (lo, phi(lo), hi, phi(hi)).

        The bracket moves up while both ends undershoot and down while both
        overshoot, by a factor that starts at the relative width and grows
        fourfold per move up to 2, so a tight warm-start bracket is
        repaired with tiny moves and a cold one in a few doublings.  For
        omega > 0 it never moves below s*."""
        f_lo, f_hi = self.monitor(lo), self.monitor(hi)
        step = max((hi - lo) / hi, 1e-12)
        for _ in range(MAX_HEIGHT_STEPS):
            if f_lo >= 0.0 >= f_hi:
                return lo, f_lo, hi, f_hi
            if f_hi > 0.0:
                lo, f_lo = hi, f_hi
                hi *= 1.0 + step
                f_hi = self.monitor(hi)
            else:
                hi, f_hi = lo, f_lo
                lo = max(self.s_star, lo / (1.0 + step))
                if lo < 1e-12:
                    break
                f_lo = self.monitor(lo)
            step = min(4.0 * step, 1.0)
        raise BracketFailure("the height monitor does not change sign "
                             f"between {lo!r} and {hi!r}")

    def find_height(self, guess: Optional[float]) -> tuple[float, float]:
        """Bracket [lo, hi] of the height, at most HEIGHT_RTOL wide: the
        tightest monitored points with phi(lo) >= 0 >= phi(hi).

        Brent's method shrinks the expanded bracket in at most
        MAX_HEIGHT_STEPS steps; a memo keeps it from integrating the bracket
        ends again.  It keeps every point with phi > 0 below every point
        with phi < 0, and stops at the first exact zero."""
        lo, f_lo, hi, f_hi = self.expand_bracket(*self.initial_bracket(guess))
        memo = {lo: f_lo, hi: f_hi}

        def phi(a: float) -> float:
            if a not in memo:
                memo[a] = self.monitor(a)
            return memo[a]

        # the width is relative only; brentq needs some positive xtol
        _, res = brentq(phi, lo, hi, xtol=1e-300, rtol=HEIGHT_RTOL,
                        maxiter=MAX_HEIGHT_STEPS, full_output=True, disp=False)
        lo = max(a for a, f in memo.items() if f >= 0.0)
        hi = min(a for a, f in memo.items() if f <= 0.0)
        if not res.converged:
            raise NoConvergence(f"height root-find stalled in [{lo!r}, "
                                f"{hi!r}] after {MAX_HEIGHT_STEPS} steps")
        return lo, hi


def _fit_tail(shooter: _Shooter, sol, a: float) -> tuple[Decay, float]:
    """Fitted analytic tail, matched at decay.match_radius, and the fitted
    decay rate.

    For omega > 0 the far-field candidates are the points of the final
    trajectory with 0 < v <= 1e-5 a and v' < 0.  The tail is matched at the
    candidate whose measured -v'/v is nearest the law's log-slope
    (Decay.log_slope): shallower points still feel the nonlinearity, deeper
    ones carry the growing mode that the last bits of the height leave in
    the far field.  For omega = 0 the power tail is matched at the last
    point of the trajectory, the exit radius 0.35 R_max.
    """
    params, law = shooter.params, shooter.law
    if params.omega > 0:
        v = transform.h(sol.y[0], params)
        far = (v > 0) & (v <= 1e-5 * a) & (sol.y[1] < 0)
        if not far.any():
            raise ConstraintViolated("the final trajectory ends before the "
                                     "far field")
        rho, v = sol.t[far], v[far]
        ratio = -sol.y[1, far] / v / law.log_slope(rho)
        m = int(np.argmin(np.abs(ratio - 1.0)))
        return (law.matched(float(rho[m]), float(v[m])),
                law.rate * float(ratio[m]))
    rho_m = float(sol.t[-1])
    u_m, vp_m = sol.y[:, -1].tolist()
    v_m = transform.h(u_m, params)
    return law.matched(rho_m, v_m), float(-rho_m * vp_m / v_m)


@dataclass
class SolveReport:
    """A solved ground state with residual diagnostics.

    u solves the quasilinear problem and v = h(u) the dual one; both are
    sampled from the same (u, v') trajectory.  ode_residual is the sup-norm
    of the dual radial ODE residual measured on the dense trajectory;
    equivalence_residual is the relative residual of the quasilinear
    equation rebuilt from v', and v'' from the dual equation, by the chain
    rule with r, r' and r'' taken in closed form on the sampled u = r(v).
    tail_rate_fit is the measured -v'/v at the match radius over
    K_{nu+1}/K_nu there, which is sqrt(omega) on the far-field law, and for
    omega = 0 the log-log slope -rho v'/v, which is N-2 on the power law.
    """

    params: Params
    regime: Regime
    v: RadialProfile
    u: RadialProfile
    shooting_height: float
    ode_residual: float
    equivalence_residual: float
    pohozaev_residual: float
    nehari_residual: float
    diagnostics: integrals.ScalarDiagnostics
    iterations: int             # root-find integrations, bracket included
    tail_rate_fit: float
    bracket: tuple[float, float]

    def gates(self) -> list[tuple[str, float, float]]:
        """(name, residual, tolerance); a gate passes below its tolerance.
        For N >= 3 the dual problem's Pohozaev identity, which the level
        m_omega rests on, is a gate of its own."""
        rows = [("ODE", self.ode_residual, 1e-6 * abs(self.shooting_height)),
                ("Pohozaev", self.pohozaev_residual, IDENTITY_TOL),
                ("Nehari", self.nehari_residual, IDENTITY_TOL)]
        if self.params.dim >= 3:
            rows.append(("dual Pohozaev", integrals.dual_pohozaev_residual(
                self.diagnostics, self.params), IDENTITY_TOL))
        return rows

    def accepted(self) -> bool:
        """Every gate passes, as on each report solve_ground_state returns."""
        return all(res < tol for _, res, tol in self.gates())

    def to_json_dict(self) -> dict:
        d = {
            "schema": 1,
            "dim": self.params.dim,
            "p": self.params.p,
            "delta": self.params.delta,
            "omega": self.params.omega,
            "regime": self.regime.tag,
            "mass_regime": self.regime.mass_tag,
            "shooting_height": self.shooting_height,
            "u_height": float(self.u.values[0]),
            "ode_residual": self.ode_residual,
            "equivalence_residual": self.equivalence_residual,
            "pohozaev_residual": self.pohozaev_residual,
            "nehari_residual": self.nehari_residual,
            "iterations": self.iterations,
            "tail_rate_fit": self.tail_rate_fit,
            "tail_kind": self.v.decay.kind,
            "tail_amplitude": self.v.decay.amplitude,
            "tail_match_radius": self.v.decay.match_radius,
        }
        d.update(self.diagnostics.as_dict())
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _sample_profiles(shooter: _Shooter, sol, a: float, grid: RadialGrid,
                     decay: Decay) -> tuple[RadialProfile, RadialProfile]:
    params = shooter.params
    nodes = grid.nodes
    u = np.empty_like(nodes)
    v = np.empty_like(nodes)
    vp = np.empty_like(nodes)
    # u from the launch series, the trajectory, and r of the fitted tail
    series = nodes < START_RADIUS
    u[series], vp[series] = series_start(a, params, nodes[series])
    inner = (nodes >= START_RADIUS) & (nodes <= decay.match_radius)
    if not inner.any():
        raise ConstraintViolated("no grid node lies inside the match radius")
    u[inner], vp[inner] = sol.sol(nodes[inner])
    outer = nodes > decay.match_radius
    v[outer] = decay.value(nodes[outer])
    vp[outer] = decay.derivative(nodes[outer])
    u[outer] = transform.r(v[outer], params)
    v[~outer] = transform.h(u[~outer], params)
    v_profile = RadialProfile(grid=grid, values=v, derivative_values=vp,
                              decay=decay)
    # r(s) = s + O(s^3): the analytic tail carries over with the same
    # amplitude at the matching level used here
    u_profile = RadialProfile(grid=grid, values=u,
                              derivative_values=vp / transform.h_prime(u, params),
                              decay=decay)
    return v_profile, u_profile


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def _ode_residual(shooter: _Shooter, sol, v_profile: RadialProfile) -> float:
    """Cell-averaged defect of the radial ODE on the nodes inside the match
    radius.

    The equation in flux form reads (rho^{N-1} v')' = -rho^{N-1} f(v), so
    per grid cell the defect is

        [rho^{N-1} v']_cell + int_cell rho^{N-1} f(v) drho

    normalized by the cell volume int_cell rho^{N-1} drho.  The node fluxes
    take v' from the profile, which _sample_profiles read off the dense
    trajectory, and the cell integrals a Gauss rule on that trajectory, so
    the measurement is free of numerical differentiation and not floored by
    stencil truncation.

    The first two integrator steps are excluded: their cells carry
    degenerate rho^{N-1} volumes that amplify interpolant noise, and the
    trajectory there is already certified against the startup series.
    """
    params = shooter.params
    nodes = v_profile.grid.nodes
    lo = max(START_RADIUS, float(sol.t[min(2, len(sol.t) - 1)]))
    keep = (nodes >= lo) & (nodes <= v_profile.decay.match_radius)
    edges = nodes[keep]
    if edges.size < 3:
        return 0.0
    n = params.dim
    flux = edges ** (n - 1) * v_profile.derivative_values[keep]
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    u_pts = sol.sol(pts.ravel())[0]
    f_pts = transform.f_omega_u(u_pts, params)
    w_pts = pts.ravel() ** (n - 1) * f_pts
    cell_int = half * (w_pts.reshape(pts.shape) * _GAUSS_W[None, :]).sum(axis=1)
    defect = flux[1:] - flux[:-1] + cell_int
    volume = (b ** n - a ** n) / n
    return float(np.max(np.abs(defect / volume)))


def _equivalence_residual(params: Params, v: RadialProfile,
                          u: RadialProfile) -> float:
    """Relative residual of the quasilinear equation for u = r(v).

    Uses v'' from the dual equation and carries v', v'' over to u by the
    chain rule with r(v) = u, r'(v) = 1/h'(u) and r''(v) = -2 delta u/h'(u)^4,
    all closed form on the u already sampled, so this isolates the
    correctness of the transform algebra rather than the integrator.
    """
    nodes = v.grid.nodes[1:]
    vv, vp, uu = v.values[1:], v.derivative_values[1:], u.values[1:]
    keep = vv > 1e-7 * abs(v.values[0])
    if not keep.any():
        raise ConstraintViolated("no grid node lies above 1e-7 of the height")
    nodes, vp, uu = nodes[keep], vp[keep], uu[keep]
    vpp = -(params.dim - 1) / nodes * vp - transform.f_omega_u(uu, params)
    hp = transform.h_prime(uu, params)
    rp = 1.0 / hp
    rpp = -2.0 * params.delta * uu / hp ** 4
    up = rp * vp
    upp = rpp * vp ** 2 + rp * vpp
    lap_u = upp + (params.dim - 1) / nodes * up
    res = lap_u - params.omega * uu + uu ** params.p \
        + params.delta * (2.0 * uu * lap_u + 2.0 * up ** 2) * uu
    scale = np.maximum(np.abs(lap_u), np.maximum(
        params.omega * np.abs(uu), np.abs(uu) ** params.p))
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(res) / scale))


def solve_ground_state(params: Params, cfg: Optional[ShootingConfig] = None,
                       guess: Optional[float] = None) -> SolveReport:
    """Compute the unique positive radial decreasing ground state.

    The report is accepted: a solve that fails its ODE, Pohozaev, Nehari
    or dual Pohozaev gate raises ConstraintViolated naming each failed
    gate.  With omega = 0 (zero mass) N >= 3 and supercritical p are
    required, and with delta = 0 (NLS) and N >= 3 subcritical p
    (Pohozaev); otherwise NoGroundState, before any integration.  `guess`
    warm-starts the bracket around a known nearby height.
    """
    cfg = cfg or ShootingConfig()
    regime = classify(params)
    if params.omega == 0 and (params.dim < 3 or not regime.is_supercritical):
        raise NoGroundState("the zero-mass problem has solutions only for "
                            "N >= 3 and supercritical p")
    if params.delta == 0.0 and params.dim >= 3 and not regime.is_subcritical:
        raise NoGroundState("the NLS (delta = 0) has ground states only for "
                            "p < (N+2)/(N-2) when N >= 3")
    grid = make_grid(params, cfg.resolution)
    shooter = _Shooter(params, grid.r_max)
    lo, hi = shooter.find_height(guess)
    # phi(lo) >= 0: the final pass is lo's own trajectory, which does not
    # cross zero, with its interpolant kept
    a = lo
    sol = shooter.integrate(a, dense=True)
    if sol.t_events[0].size:
        raise AmbiguousTrajectory("the accepted height crosses zero")
    decay, rate_fit = _fit_tail(shooter, sol, a)
    v_profile, u_profile = _sample_profiles(shooter, sol, a, grid, decay)

    ode_res = _ode_residual(shooter, sol, v_profile)
    equiv_res = _equivalence_residual(params, v_profile, u_profile)
    diag = integrals.compute_diagnostics(u_profile, params)
    if params.dim >= 3:
        m_omega = integrals.level_m_omega(diag, params)
        m_star = (integrals.sobolev_constant(params.dim)
                  if regime.is_critical else None)
        diag = replace(diag, m_omega=m_omega, m_star=m_star, delta_omega=(
            None if m_star is None else m_omega - m_star))
    poh = integrals.pohozaev_residual(diag, params)
    neh = integrals.nehari_residual(diag, params)
    report = SolveReport(
        params=params, regime=regime, v=v_profile, u=u_profile,
        shooting_height=a, ode_residual=ode_res,
        equivalence_residual=equiv_res, pohozaev_residual=poh,
        nehari_residual=neh, diagnostics=diag,
        iterations=shooter.integrations, tail_rate_fit=rate_fit,
        bracket=(lo, hi))
    if not report.accepted():
        raise ConstraintViolated("the solve fails its gates: " + ", ".join(
            f"{name} residual {res:.3g} against {tol:.3g}"
            for name, res, tol in report.gates() if not res < tol))
    return report

