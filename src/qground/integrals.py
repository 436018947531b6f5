"""Radial quadrature with explicit tail corrections, and the scalar
functionals entering the identities: mass M, Dirichlet energy T, the
quasilinear gradient integral Q_grad, the potential term P, beta = P/T,
the energy E, and the variational level m_omega.

Every integral is Simpson on the grid (taken in the uniform stretching
parameter, so the weights keep fourth order) plus the moment of the fitted
decay beyond R_max, which the law computes itself (params.Decay.moment and
gradient_moment): nothing for an exponential tail, since make_grid puts
R_max at least 15 decay lengths out by construction, the closed form for a
power tail, or Divergent when that integral does not converge, which is how
the low-dimension mass blow-up of the zero-mass limit shows up in practice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson
from scipy.special import gamma as gamma_fn

from .errors import ConstraintViolated, Divergent, InvalidParams
from .params import Params, RadialGrid, RadialProfile, sphere_area

#: largest relative gap of the dual Pohozaev cross-check in level_m_omega
LEVEL_CROSS_CHECK_TOL = 1e-6


def sobolev_constant(dim: int) -> float:
    """Best constant of the critical Sobolev embedding on R^N, N >= 3.

    This is the infimum of |grad w|_2^2 / |w|_{2*}^2, attained by the
    explicit bubble profile; closed form pi*N*(N-2)*(Gamma(N/2)/Gamma(N))^(2/N).
    """
    if dim < 3:
        raise InvalidParams("the critical Sobolev constant needs N >= 3")
    return math.pi * dim * (dim - 2) \
        * (gamma_fn(dim / 2.0) / gamma_fn(float(dim))) ** (2.0 / dim)


def integrate_radial(values: np.ndarray, grid: RadialGrid, dim: int,
                     tail: float = 0.0) -> float:
    """Integrate f over R^N given node values of a radial f.

    Composite Simpson in the uniform grid parameter with weight
    |S^{N-1}| rho^{N-1} * drho/dxi, plus the supplied closed-form tail
    contribution for [R_max, infinity).
    """
    integrand = np.asarray(values) * grid.nodes ** (dim - 1) * grid.jacobian
    core = simpson(integrand, dx=grid.dxi)
    return sphere_area(dim) * float(core) + tail


# ---------------------------------------------------------------------------
# profile functionals
# ---------------------------------------------------------------------------

def profile_moment(profile: RadialProfile, k: float, dim: int) -> float:
    """int |u|^k dx with the tail of the fitted decay."""
    decay, r_max = profile.decay, profile.grid.r_max
    tail = decay.moment(k, r_max) if decay else 0.0
    return integrate_radial(np.abs(profile.values) ** k, profile.grid, dim, tail)


def dirichlet_integral(profile: RadialProfile, dim: int) -> float:
    """int |grad u|^2 dx = |S^{N-1}| int (u')^2 rho^{N-1} drho + tail."""
    decay, r_max = profile.decay, profile.grid.r_max
    tail = decay.gradient_moment(2.0, r_max) if decay else 0.0
    return integrate_radial(profile.derivative_values ** 2, profile.grid, dim, tail)


def quasi_gradient_integral(profile: RadialProfile, dim: int) -> float:
    """int u^2 |grad u|^2 dx, the quasilinear gradient integral."""
    decay, r_max = profile.decay, profile.grid.r_max
    tail = decay.gradient_moment(4.0, r_max) if decay else 0.0
    values = profile.values ** 2 * profile.derivative_values ** 2
    return integrate_radial(values, profile.grid, dim, tail)


# ---------------------------------------------------------------------------
# diagnostics and identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalarDiagnostics:
    """Scalar functionals of a solved ground state.

    mass is None when the decay law makes int u^2 divergent (zero-mass
    profiles in dimensions 3 and 4).  m_omega and m_star are None outside
    their domain of definition (N = 2, respectively non-critical p), and
    for a profile alone: solve_ground_state fills them by level_m_omega.
    """

    mass: Optional[float]
    dirichlet: float
    quasi_grad: float
    potential: float
    beta: float
    energy: float
    m_omega: Optional[float] = None
    m_star: Optional[float] = None
    delta_omega: Optional[float] = None

    def as_dict(self) -> dict:
        return {
            "mass": self.mass,
            "dirichlet": self.dirichlet,
            "quasi_grad": self.quasi_grad,
            "potential": self.potential,
            "beta": self.beta,
            "energy": self.energy,
            "m_omega": self.m_omega,
            "m_star": self.m_star,
            "delta_omega": self.delta_omega,
        }


def energy_functional(dirichlet: float, quasi_grad: float, potential: float,
                      params: Params) -> float:
    """E(u) = T/2 + delta * Q_grad - P/(p+1)."""
    return 0.5 * dirichlet + params.delta * quasi_grad \
        - potential / (params.p + 1.0)


def compute_diagnostics(u: RadialProfile, params: Params) -> ScalarDiagnostics:
    """The scalar functionals of a profile u; the level fields stay None
    (solve_ground_state fills them from these by level_m_omega)."""
    dim = params.dim
    try:
        mass: Optional[float] = profile_moment(u, 2.0, dim)
    except Divergent:
        mass = None
    dirichlet = dirichlet_integral(u, dim)
    quasi = quasi_gradient_integral(u, dim)
    potential = profile_moment(u, params.p + 1.0, dim)
    beta = potential / dirichlet
    energy = energy_functional(dirichlet, quasi, potential, params)
    return ScalarDiagnostics(mass=mass, dirichlet=dirichlet, quasi_grad=quasi,
                             potential=potential, beta=beta, energy=energy)


def _mass_term(d: ScalarDiagnostics, params: Params, what: str) -> float:
    """omega M / 2, absent for omega = 0 (where M need not even be finite)."""
    if params.omega == 0.0:
        return 0.0
    if d.mass is None:
        raise Divergent(f"{what} needs a finite mass when omega > 0")
    return 0.5 * params.omega * d.mass


def pohozaev_residual(d: ScalarDiagnostics, params: Params) -> float:
    """Relative residual of the Pohozaev identity, normalized by T.

    (N-2)/(2N) T + (N-2)/N delta Q_grad - P/(p+1) + omega/2 M = 0.
    In dimension 2 the gradient terms drop out; for omega = 0 the mass term
    is absent (it need not even be finite).
    """
    n = params.dim
    res = (n - 2) / (2.0 * n) * d.dirichlet \
        + (n - 2) / n * params.delta * d.quasi_grad \
        - d.potential / (params.p + 1.0) + _mass_term(d, params, "Pohozaev")
    return abs(res) / d.dirichlet


def nehari_residual(d: ScalarDiagnostics, params: Params) -> float:
    """Relative residual of the Nehari identity, normalized by T.

    T/2 + 2 delta Q_grad - P/2 + omega/2 M = 0.
    """
    res = 0.5 * d.dirichlet + 2.0 * params.delta * d.quasi_grad \
        - 0.5 * d.potential + _mass_term(d, params, "Nehari")
    return abs(res) / d.dirichlet


def critical_key_residual(d: ScalarDiagnostics, params: Params) -> float:
    """Relative residual of delta Q_grad = omega M / (N-2) (critical p only)."""
    if d.mass is None:
        raise Divergent("critical key estimate needs a finite mass")
    lhs = params.delta * d.quasi_grad
    rhs = params.omega * d.mass / (params.dim - 2)
    return abs(lhs - rhs) / max(abs(rhs), abs(lhs))


def level_m_omega(d: ScalarDiagnostics, params: Params) -> float:
    """Variational level m_omega = (2* int F_omega)^(2/N) of the dual
    problem, from the scalars T, Q_grad, P and M of u.

    With v = h(u), int F_omega = P/(p+1) - omega M/2 and, since v' = h'(u) u'
    and h'(u)^2 = 1 + 2 delta u^2, int |grad v|^2 = T + 2 delta Q_grad.  The
    Pohozaev identity of the dual problem forces int |grad v|^2 =
    2* int F_omega; the two must agree to LEVEL_CROSS_CHECK_TOL or the solve
    is rejected (ConstraintViolated).
    """
    if params.dim < 3:
        raise InvalidParams("the variational level uses 2*, so needs N >= 3")
    int_f = d.potential / (params.p + 1.0) - _mass_term(d, params, "the level")
    two_star = params.two_star()
    dirichlet = d.dirichlet + 2.0 * params.delta * d.quasi_grad
    rel = abs(dirichlet - two_star * int_f) / dirichlet
    if rel > LEVEL_CROSS_CHECK_TOL:
        raise ConstraintViolated(
            f"dual Pohozaev cross-check failed: |T_v - 2* int F| / T_v = {rel:.3e}")
    return float((two_star * int_f) ** (2.0 / params.dim))


# ---------------------------------------------------------------------------
# appendix property checks
# ---------------------------------------------------------------------------

def radial_decay_check(u: RadialProfile, s: float, dim: int) -> bool:
    """Pointwise bound |u(x)| <= C_{N,s} |u|_{L^s} |x|^{-N/s} for radial
    nonincreasing u, with C_{N,s} = (N / |S^{N-1}|)^{1/s}, up to a relative
    slack of 1e-9.

    Returns False when u is not nonincreasing (the bound presumes it).
    """
    if not u.is_positive_decreasing():
        return False
    norm_s = profile_moment(u, s, dim) ** (1.0 / s)
    c = (dim / sphere_area(dim)) ** (1.0 / s)
    rho = u.grid.nodes[1:]
    bound = c * norm_s * rho ** (-dim / s)
    return bool(np.all(np.abs(u.values[1:]) <= bound * (1.0 + 1e-9)))


def gn_ratio(u: RadialProfile, q: float, s: float, dim: int) -> float:
    """Fitted constant of the Gagliardo-Nirenberg-type inequality for u^2:

        int |u|^q <= C (int u^2 |grad u|^2)^(theta N/(N-2)) (int |u|^s)^(1-theta)

    with theta = (N-2)(q-s) / (2s + N(4-s)).  Returns the ratio lhs/rhs,
    i.e. the smallest admissible C for this profile.

    The gradient-term exponent theta*N/(N-2) is forced by scale invariance:
    it is the unique power for which both sides respond identically to
    u -> s*u(./lambda), which is also what the classical inequality applied
    to u^2 produces.
    """
    limit = 4.0 * dim / (dim - 2)
    if not (2 <= s < limit and s < q < limit):
        raise InvalidParams("gn_ratio needs 2 <= s < q < 4N/(N-2)")
    theta = (dim - 2) * (q - s) / (2 * s + dim * (4 - s))
    lhs = profile_moment(u, q, dim)
    quasi = quasi_gradient_integral(u, dim)
    norm_s = profile_moment(u, s, dim)
    rhs = quasi ** (theta * dim / (dim - 2)) * norm_s ** (1.0 - theta)
    return lhs / rhs


def gn_check(u: RadialProfile, q: float, s: float, dim: int,
             constant: Optional[float] = None) -> bool:
    """True iff the inequality holds with the supplied constant (or, when
    none is given, iff the fitted ratio is finite and positive)."""
    ratio = gn_ratio(u, q, s, dim)
    if constant is None:
        return bool(np.isfinite(ratio) and ratio > 0)
    return bool(ratio <= constant)


def moser_bound_check(heights: list[tuple[float, float]]) -> bool:
    """Uniform sup-bound check for a family of dual-problem minimizers.

    `heights` holds (omega, sup-norm) pairs.  The family passes when every
    sup-norm is finite and, past the transient head of the ladder (its
    largest 30% of frequencies), the sup-norm does not increase as omega
    decreases by more than 1e-6 relative.
    """
    if not heights:
        return False
    pairs = sorted(heights, key=lambda t: -t[0])   # decreasing omega
    values = np.array([h for _, h in pairs], dtype=float)
    if not np.all(np.isfinite(values)):
        return False
    start = int(len(values) * 0.3)
    tail = values[start:]
    return bool(np.all(np.diff(tail) <= 1e-6 * np.abs(tail[:-1])))
