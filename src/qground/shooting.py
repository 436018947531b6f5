"""Radial shooting for the dual semilinear problem -Delta v = f_omega(v).

The positive decaying solution is found by bisection on the center height
v(0) = a: trajectories that cross zero overshoot, trajectories that turn
back up undershoot, and the ground state sits on the boundary.  Each
trajectory integrates (u, w = v') with v = h(u) and h'(u) closed form:

    u' = w / h'(u),    w' = -(N-1)/rho w - (|u|^{p-1} u - omega u) / h'(u),

so the right-hand side never inverts h (at delta = 0 it is the NLS system);
r = h^{-1} runs once per trajectory on the launch value and on each event
level, which are v-levels.  Once the trajectory drops below a matching threshold the side is decided by the
local logarithmic slope, so bisection iterations never integrate through
the contaminated far field.  Beyond the matching radius the profile is
extended by the fitted analytic tail:

    omega > 0:  v ~ A rho^{-(N-1)/2} exp(-sqrt(omega) rho)
    omega = 0:  v ~ c rho^{-(N-2)}   (zero-mass problem, supercritical only)

The ground state u is read off the trajectory and v = h(u); the fitted
tail of v is carried back to u through r.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import integrals, transform
from .errors import (AmbiguousTrajectory, BracketFailure, InvalidParams,
                     NoGroundState)
from .params import (DECAY_EXPONENTIAL, DECAY_POWER, Decay, Params,
                     RadialGrid, RadialProfile, Regime, classify, make_grid)

OVERSHOOT = "overshoot"
UNDERSHOOT = "undershoot"

#: start of integration; the (N-1)/rho singularity is bridged by a series
START_RADIUS = 1e-4
#: fraction of R_max where zero-mass trajectories are matched to the tail
ZERO_MASS_MATCH_FRACTION = 0.35


@dataclass(frozen=True)
class ShootingConfig:
    """Tolerances and bracket controls for the dichotomy search."""

    bisect_rtol: float = 1e-13
    ode_rtol: float = 1e-11
    ode_atol_rel: float = 1e-13
    tail_match_rel: float = 1e-9       # classification depth during bisection
    tail_floor_rel: float = 1e-9       # integration depth of the final pass
    max_bisect: int = 200
    resolution: int = 1024
    bracket: Optional[tuple[float, float]] = None
    r_max: Optional[float] = None      # override the default outer radius

    def __post_init__(self):
        if self.bracket is not None and not self.bracket[0] < self.bracket[1]:
            raise InvalidParams("bracket must satisfy a_lo < a_hi")
        if min(self.bisect_rtol, self.ode_rtol, self.ode_atol_rel) <= 0:
            raise InvalidParams("tolerances must be positive")


def series_start(a: float, params: Params, r0: float) -> tuple[float, float]:
    """Taylor launch values (v, v') at r0 for the regular solution with
    v(0) = a, v'(0) = 0.

    v(r) = a - f(a) r^2 / (2N) + f'(a) f(a) r^4 / (8N(N+2)) + O(r^6).
    """
    ctx = transform.TransformContext(params.delta)
    u0 = transform.r_scalar(a, ctx)
    fa = transform.f_omega_u(u0, params.omega, params.p, ctx)
    fpa = transform.f_omega_prime_u(u0, params.omega, params.p, ctx)
    n = params.dim
    c2 = -fa / (2.0 * n)
    c4 = fpa * fa / (8.0 * n * (n + 2.0))
    v = a + c2 * r0 * r0 + c4 * r0 ** 4
    vp = 2.0 * c2 * r0 + 4.0 * c4 * r0 ** 3
    return v, vp


def classify_trajectory(params: Params, *, crossed_zero: bool,
                        turned_up: bool, rho: float, v: float, vp: float) -> str:
    """Classify a shooting trajectory's terminal state.

    Overshoot: v crossed zero going down, or at the last radius it decays
    faster than the connecting orbit.  Undershoot: v' flipped positive with
    v > 0, or the decay is slower than the connecting orbit's.
    """
    if crossed_zero:
        return OVERSHOOT
    if turned_up:
        return UNDERSHOOT
    if v <= 0.0:
        return OVERSHOOT
    n = params.dim
    if params.omega > 0.0:
        orbit_slope = math.sqrt(params.omega) + (n - 1) / (2.0 * rho)
        return UNDERSHOOT if -vp / v < orbit_slope else OVERSHOOT
    # omega = 0: power-law dichotomy.  The connecting orbit decays like
    # rho^-(N-2); the slow branch like rho^(-2/(p-1)).  Split at the midpoint.
    slope = -rho * vp / v
    threshold = 0.5 * ((n - 2) + 2.0 / (params.p - 1.0))
    return UNDERSHOOT if slope < threshold else OVERSHOOT


class _Shooter:
    """One (params, config) shooting context; owns the RHS and events."""

    def __init__(self, params: Params, cfg: ShootingConfig):
        self.params = params
        self.cfg = cfg
        self.ctx = transform.TransformContext(params.delta)
        self.s_star = transform.s_star(params.omega, params.p, self.ctx)
        self.r_max = cfg.r_max if cfg.r_max is not None \
            else make_grid(params, cfg.resolution).r_max
        n = params.dim
        two_delta, pm1, omega = 2.0 * params.delta, params.p - 1.0, params.omega

        def rhs(rho, y):
            u, w = y.tolist()
            root = math.sqrt(1.0 + two_delta * u * u)
            return (w / root,
                    -(n - 1) / rho * w - (abs(u) ** pm1 * u - omega * u) / root)

        self.rhs = rhs

    def _events(self, a: float, mode: str):
        """Events: v crossing zero, v' turning positive, and for omega > 0
        the matching thresholds.  In "classify" mode the match level is
        terminal (bisection never integrates the contaminated far field);
        in "final" mode it is only recorded and a deeper floor terminates,
        giving the tail fit room to select its matching radius.  The v-levels
        are converted to u-levels once (v = 0 exactly when u = 0)."""
        def cross(rho, y):
            return y[0]
        cross.terminal, cross.direction = True, -1

        def turn(rho, y):
            return y[1]
        turn.terminal, turn.direction = True, 1

        events = [cross, turn]
        if mode != "bare" and self.params.omega > 0:
            u_match = transform.r_scalar(self.cfg.tail_match_rel * a, self.ctx)

            def match(rho, y):
                return y[0] - u_match
            match.terminal, match.direction = (mode == "classify"), -1
            events.append(match)
            if mode == "final":
                u_floor = transform.r_scalar(self.cfg.tail_floor_rel * a,
                                             self.ctx)

                def floor(rho, y):
                    return y[0] - u_floor
                floor.terminal, floor.direction = True, -1
                events.append(floor)
        return events

    def integrate(self, a: float, r_end: Optional[float] = None,
                  dense: bool = False, mode: str = "classify"):
        v0, w0 = series_start(a, self.params, START_RADIUS)
        y0 = (transform.r_scalar(v0, self.ctx), w0)
        return solve_ivp(
            self.rhs, (START_RADIUS, r_end if r_end else self.r_max), y0,
            method="DOP853", rtol=self.cfg.ode_rtol,
            atol=self.cfg.ode_atol_rel * a,
            events=self._events(a, mode), dense_output=dense)

    def classify(self, a: float) -> str:
        sol = self.integrate(a)
        crossed = sol.t_events[0].size > 0
        turned = sol.t_events[1].size > 0
        return classify_trajectory(
            self.params, crossed_zero=crossed, turned_up=turned,
            rho=float(sol.t[-1]), v=transform.h(sol.y[0, -1], self.ctx),
            vp=float(sol.y[1, -1]))

    # -- bracketing ---------------------------------------------------------

    def initial_bracket(self, guess: Optional[float]) -> tuple[float, float]:
        if self.cfg.bracket is not None:
            return self.cfg.bracket
        if guess is not None:
            # the NLS scaling law is exact at delta = 0, a few percent off
            # otherwise; expand_bracket repairs a one-sided guess
            margin = 5e-13 if self.ctx.is_identity else 0.05
            return guess * (1.0 - margin), guess * (1.0 + margin)
        if self.params.omega > 0:
            return self.s_star, 10.0 * self.s_star
        return 1.0, 1.0

    def expand_bracket(self, lo: float, hi: float) -> tuple[float, float]:
        """Grow the bracket until it straddles the dichotomy.

        Expansion accelerates geometrically from the current bracket width,
        so a tight warm-start bracket is repaired with tiny moves while a
        cold start reaches an overshoot in a few doublings."""
        omega = self.params.omega
        floor = self.s_star if omega > 0 else 0.0
        step = max((hi - lo) / max(hi, 1e-300), 1e-12)
        for _ in range(300):
            if self.classify(hi) == OVERSHOOT:
                break
            lo = hi
            hi *= 1.0 + step
            step = min(4.0 * step, 1.0)
        else:
            raise BracketFailure("no overshoot found while raising the bracket")
        step = max((hi - lo) / max(hi, 1e-300), 1e-12)
        for _ in range(300):
            if omega > 0 and lo <= floor * (1 + 1e-12):
                break  # a = s* is a guaranteed undershoot by the energy law
            if self.classify(lo) == UNDERSHOOT:
                break
            hi = lo
            lo = max(floor, lo / (1.0 + step)) if omega > 0 \
                else lo / (1.0 + step)
            step = min(4.0 * step, 1.0)
            if omega == 0 and lo < 1e-12:
                raise BracketFailure("no undershoot found while lowering "
                                     "the bracket")
        else:
            raise BracketFailure("no undershoot found while lowering the bracket")
        return lo, hi


def _fit_tail(shooter: _Shooter, sol, a: float,
              rate_tol: float = 0.005) -> tuple[Decay, float, float]:
    """Fitted analytic tail and the matched radius for the final trajectory.

    For omega > 0 the matching radius is chosen adaptively: the deepest
    far-field radius at which the measured decay rate -v'/v - (N-1)/(2 rho)
    agrees with sqrt(omega) to rate_tol.  This backs away both from the
    crossover region of deep-critical profiles (where the exponential law
    has not set in yet) and from the bracket-limited contamination that
    grows past the classification depth.
    """
    params = shooter.params
    n = params.dim
    if params.omega > 0:
        kappa = math.sqrt(params.omega)
        v_far = 1e-5 * a
        v_all = transform.h(sol.y[0], shooter.ctx)
        mask = (v_all > 0) & (v_all <= v_far) & (sol.y[1] < 0)
        if mask.any():
            cand_t = sol.t[mask]
            cand_v = v_all[mask]
            cand_vp = sol.y[1][mask]
            rate = -cand_vp / cand_v - (n - 1) / (2.0 * cand_t)
            ok = np.abs(rate / kappa - 1.0) <= rate_tol
            # no candidate on the asymptotic law means the whole reachable
            # far field is still crossover; match as deep as possible, where
            # the remaining tail weight is smallest
            idx = int(np.nonzero(ok)[0][-1]) if ok.any() else len(cand_t) - 1
            rho_m = float(cand_t[idx])
            v_m = float(cand_v[idx])
            rate_fit = float(rate[idx])
        else:          # trajectory ended before reaching the far field
            rho_m = float(sol.t[-1])
            v_m, vp_m = float(v_all[-1]), float(sol.y[1, -1])
            rate_fit = -vp_m / v_m - (n - 1) / (2.0 * rho_m)
        amp = v_m * rho_m ** ((n - 1) / 2.0) * math.exp(kappa * rho_m)
        decay = Decay(kind=DECAY_EXPONENTIAL, rate=kappa, amplitude=amp,
                      match_radius=rho_m, dim=n)
        return decay, rho_m, rate_fit
    rho_m = ZERO_MASS_MATCH_FRACTION * shooter.r_max
    u_m, vp_m = (float(x) for x in sol.sol(rho_m))
    v_m = transform.h(u_m, shooter.ctx)
    amp = v_m * rho_m ** (n - 2)
    decay = Decay(kind=DECAY_POWER, exponent=float(n - 2), amplitude=amp,
                  match_radius=rho_m, dim=n)
    rate = float(-rho_m * vp_m / v_m)  # log-slope, should be close to N-2
    return decay, rho_m, rate


@dataclass
class SolveReport:
    """A solved ground state with residual diagnostics.

    u solves the quasilinear problem and v = h(u) the dual one; both are
    sampled from the same (u, v') trajectory.  ode_residual is the sup-norm
    of the dual radial ODE residual measured on the dense trajectory;
    equivalence_residual is the relative residual of the quasilinear
    equation rebuilt from v alone through r, r' and r'' by the chain rule.
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
    m_omega: Optional[float]
    diagnostics: integrals.ScalarDiagnostics
    iterations: int
    tail_rate_fit: float
    bracket: tuple[float, float]

    def accepted(self, identity_tol: float = 1e-6) -> bool:
        return bool(self.ode_residual < 1e-6 * abs(self.shooting_height)
                    and self.pohozaev_residual < identity_tol
                    and self.nehari_residual < identity_tol)

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
            "m_omega": self.m_omega,
            "iterations": self.iterations,
            "tail_rate_fit": self.tail_rate_fit,
            "tail_kind": self.v.decay.kind if self.v.decay else None,
            "tail_amplitude": self.v.decay.amplitude if self.v.decay else None,
            "tail_match_radius": self.v.decay.match_radius if self.v.decay else None,
        }
        d.update(self.diagnostics.as_dict())
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _sample_profiles(shooter: _Shooter, sol, a: float, grid: RadialGrid,
                     decay: Decay) -> tuple[RadialProfile, RadialProfile]:
    params = shooter.params
    ctx = shooter.ctx
    nodes = grid.nodes
    rho_m = decay.match_radius
    u = np.empty_like(nodes)
    v = np.empty_like(nodes)
    vp = np.empty_like(nodes)
    # off the trajectory v is given and u = r(v), in one vectorised call
    v[0], vp[0] = a, 0.0
    series = (nodes > 0) & (nodes < START_RADIUS)
    for i in np.nonzero(series)[0]:
        v[i], vp[i] = series_start(a, params, float(nodes[i]))
    outer = nodes > rho_m
    v[outer] = decay.value(nodes[outer])
    vp[outer] = decay.derivative(nodes[outer])
    inner = (nodes >= START_RADIUS) & (nodes <= rho_m)
    u[~inner] = transform.r(v[~inner], ctx)
    u[inner], vp[inner] = sol.sol(nodes[inner])
    v[inner] = transform.h(u[inner], ctx)
    v_profile = RadialProfile(grid=grid, values=v, derivative_values=vp,
                              decay=decay)
    # r(s) = s + O(s^3): the analytic tail carries over with the same
    # amplitude at the matching level used here
    u_profile = RadialProfile(grid=grid, values=u,
                              derivative_values=vp / transform.h_prime(u, ctx),
                              decay=decay)
    return v_profile, u_profile


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def _ode_residual(shooter: _Shooter, sol, v_profile: RadialProfile,
                  rho_m: float) -> float:
    """Cell-averaged defect of the radial ODE on interior nodes.

    The equation in flux form reads (rho^{N-1} v')' = -rho^{N-1} f(v), so
    per grid cell the defect is

        [rho^{N-1} v']_cell + int_cell rho^{N-1} f(v) drho

    normalized by the cell volume int_cell rho^{N-1} drho.  Fluxes and a
    Gauss rule on the dense trajectory make this measurement free of
    numerical differentiation, so it is not floored by stencil truncation.

    The first two integrator steps are excluded: their cells carry
    degenerate rho^{N-1} volumes that amplify interpolant noise, and the
    trajectory there is already certified against the startup series.
    """
    params = shooter.params
    nodes = v_profile.grid.nodes
    lo = max(START_RADIUS, float(sol.t[min(2, len(sol.t) - 1)]))
    hi = min(rho_m, float(sol.t[-1]))
    edges = nodes[(nodes >= lo) & (nodes <= hi)]
    if edges.size < 3:
        return 0.0
    states = sol.sol(edges)
    n = params.dim
    flux = edges ** (n - 1) * states[1]
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    pts = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    u_pts = sol.sol(pts.ravel())[0]
    f_pts = transform.f_omega_u(u_pts, params.omega, params.p, shooter.ctx)
    w_pts = pts.ravel() ** (n - 1) * f_pts
    cell_int = half * (w_pts.reshape(pts.shape) * _GAUSS_W[None, :]).sum(axis=1)
    defect = flux[1:] - flux[:-1] + cell_int
    volume = (b ** n - a ** n) / n
    return float(np.max(np.abs(defect / volume)))


def _equivalence_residual(shooter: _Shooter, v: RadialProfile,
                          u: RadialProfile) -> float:
    """Relative residual of the quasilinear equation for u = r(v).

    Uses v'' from the dual equation, so this isolates the correctness of
    the transform algebra (r, r', r'') rather than the integrator.
    """
    params = shooter.params
    ctx = shooter.ctx
    nodes = v.grid.nodes[1:]
    vv, vp = v.values[1:], v.derivative_values[1:]
    keep = vv > 1e-7 * abs(v.values[0])
    nodes, vv, vp = nodes[keep], vv[keep], vp[keep]
    f_vals = transform.f_omega(vv, params.omega, params.p, ctx)
    vpp = -(params.dim - 1) / nodes * vp - f_vals
    rp = transform.r_prime(vv, ctx)
    rpp = transform.r_second(vv, ctx)
    uu = transform.r(vv, ctx)
    up = rp * vp
    upp = rpp * vp ** 2 + rp * vpp
    lap_u = upp + (params.dim - 1) / nodes * up
    res = lap_u - params.omega * uu + uu ** params.p \
        + params.delta * (2.0 * uu * lap_u + 2.0 * up ** 2) * uu
    scale = np.maximum(np.abs(lap_u), np.maximum(
        params.omega * np.abs(uu), np.abs(uu) ** params.p))
    scale = np.maximum(scale, 1e-300)
    return float(np.max(np.abs(res) / scale))


def _polish_zero_mass(shooter: _Shooter, lo: float, hi: float) -> float:
    """Refine the zero-mass height by rooting the far-field monitor
    (N-2) v + rho v' at a fixed radius; the bisection bracket only resolves
    the constant far-field mode down to R_max^{2-N}, the smooth monitor
    goes much further."""
    params = shooter.params
    n = params.dim
    rho_1 = ZERO_MASS_MATCH_FRACTION * shooter.r_max

    def monitor(a: float) -> float:
        sol = shooter.integrate(a, r_end=rho_1, dense=False, mode="bare")
        if sol.t_events[0].size or sol.y[0, -1] <= 0:
            return -1e6 * (1.0 + a)
        v_1 = transform.h(sol.y[0, -1], shooter.ctx)
        return (n - 2) * v_1 + rho_1 * float(sol.y[1, -1])

    # The bisection fixed point only pins the constant far-field mode down
    # to ~R_max^{2-N}, so the monitor root may sit outside the final
    # bracket; expand geometrically until it is straddled.
    m_lo, m_hi = monitor(lo), monitor(hi)
    step = max(hi - lo, 1e-7 * hi)
    for _ in range(80):
        if m_hi < 0:
            break
        lo, m_lo = hi, m_hi
        hi += step
        step *= 2.0
        m_hi = monitor(hi)
    step = max(hi - lo, 1e-7 * hi)
    for _ in range(80):
        if m_lo > 0:
            break
        hi, m_hi = lo, m_lo
        lo -= step
        step *= 2.0
        m_lo = monitor(lo)
    if not (m_lo > 0 > m_hi):
        return 0.5 * (lo + hi)
    return float(brentq(monitor, lo, hi, xtol=1e-15 * hi, rtol=8.9e-16))


def solve_ground_state(params: Params, cfg: Optional[ShootingConfig] = None,
                       guess: Optional[float] = None) -> SolveReport:
    """Compute the unique positive radial decreasing ground state.

    For omega = 0 the zero-mass problem requires N >= 3 and supercritical p
    (otherwise NoGroundState).  `guess` warm-starts the bracket around a
    known nearby height.
    """
    cfg = cfg or ShootingConfig()
    regime = classify(params)
    if params.omega == 0.0:
        if params.dim < 3 or not regime.is_supercritical:
            raise NoGroundState(
                "the zero-mass problem has solutions only for N >= 3 and "
                "supercritical p")
    shooter = _Shooter(params, cfg)
    lo, hi = shooter.initial_bracket(guess)
    lo, hi = shooter.expand_bracket(lo, hi)

    iterations = 0
    while hi - lo > cfg.bisect_rtol * hi and iterations < cfg.max_bisect:
        mid = 0.5 * (lo + hi)
        if shooter.classify(mid) == OVERSHOOT:
            hi = mid
        else:
            lo = mid
        iterations += 1
    a = 0.5 * (lo + hi)
    if params.omega == 0.0:
        a = _polish_zero_mass(shooter, lo, hi)

    sol = shooter.integrate(a, dense=True, mode="final")
    if sol.t_events[0].size:
        # a crossing below the classification depth is the expected fate of
        # the bracket midpoint; only an early crossing signals a bad solve
        matched = len(sol.t_events) > 2 and sol.t_events[2].size > 0
        if not matched:
            raise AmbiguousTrajectory(
                "accepted height crosses zero above the matching depth; "
                "tighten tolerances")
    decay, rho_m, rate_fit = _fit_tail(shooter, sol, a)
    grid = make_grid(params, cfg.resolution, r_max=cfg.r_max)
    v_profile, u_profile = _sample_profiles(shooter, sol, a, grid, decay)

    ode_res = _ode_residual(shooter, sol, v_profile, rho_m)
    equiv_res = _equivalence_residual(shooter, v_profile, u_profile)
    diag = integrals.compute_diagnostics(u_profile, params, v=v_profile)
    poh = integrals.pohozaev_residual(u_profile, params, diag)
    neh = integrals.nehari_residual(u_profile, params, diag)
    return SolveReport(
        params=params, regime=regime, v=v_profile, u=u_profile,
        shooting_height=a, ode_residual=ode_res,
        equivalence_residual=equiv_res, pohozaev_residual=poh,
        nehari_residual=neh, m_omega=diag.m_omega, diagnostics=diag,
        iterations=iterations, tail_rate_fit=rate_fit, bracket=(lo, hi))


_NLS_CACHE: dict = {}


def nls_ground_state(dim: int, p, resolution: int = 1024) -> SolveReport:
    """Ground state Q of Delta Q - Q + |Q|^{p-1} Q = 0 (delta = 0, omega = 1).

    Exists for N = 2, p > 1 and for N >= 3, p < (N+2)/(N-2).  Reports are
    cached per (N, p, resolution): the subcritical asymptotics reuse them
    heavily.
    """
    params = Params(dim, p, 0.0, 1.0)
    regime = classify(params)
    if dim >= 3 and not regime.is_subcritical:
        raise InvalidParams(
            "the NLS ground state needs p < (N+2)/(N-2) in dimension >= 3")
    key = (dim, params.p, resolution)
    if key not in _NLS_CACHE:
        _NLS_CACHE[key] = solve_ground_state(
            params, ShootingConfig(resolution=resolution))
    return _NLS_CACHE[key]
