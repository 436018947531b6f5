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
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.integrate import simpson
from scipy.special import gamma as gamma_fn

from .errors import ConstraintViolated, Divergent, InvalidParams
from .params import Params, RadialGrid, RadialProfile, sphere_area


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
        return asdict(self)


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


def _dual_pohozaev_sides(d: ScalarDiagnostics,
                         params: Params) -> tuple[float, float]:
    """int |grad v|^2 and 2* int F_omega for v = h(u), from T, Q_grad, P, M.

    int F_omega = P/(p+1) - omega M/2 and, since v' = h'(u) u' and
    h'(u)^2 = 1 + 2 delta u^2, int |grad v|^2 = T + 2 delta Q_grad.
    """
    int_f = d.potential / (params.p + 1.0) - _mass_term(d, params, "the level")
    return (d.dirichlet + 2.0 * params.delta * d.quasi_grad,
            params.two_star() * int_f)


def dual_pohozaev_residual(d: ScalarDiagnostics, params: Params) -> float:
    """Relative residual of the dual problem's Pohozaev identity
    int |grad v|^2 = 2* int F_omega (N >= 3), normalized by int |grad v|^2.

    It is the Pohozaev identity of u multiplied by 2* = 2N/(N-2), so it
    equals 2* T / (T + 2 delta Q_grad) times pohozaev_residual.  Where
    2 delta Q_grad is small against T that factor nears 2*, which makes
    this the binding gate on deep critical ladders.
    """
    grad_v, level_base = _dual_pohozaev_sides(d, params)
    return abs(grad_v - level_base) / grad_v


def level_m_omega(d: ScalarDiagnostics, params: Params) -> float:
    """Variational level m_omega = (2* int F_omega)^(2/N) of the dual
    problem, from the scalars T, Q_grad, P and M of u.

    ConstraintViolated when int F_omega <= 0: the dual Pohozaev identity
    int |grad v|^2 = 2* int F_omega then fails outright, and the level has
    no real value.
    """
    if params.dim < 3:
        raise InvalidParams("the variational level uses 2*, so needs N >= 3")
    _, level_base = _dual_pohozaev_sides(d, params)
    if not level_base > 0:
        raise ConstraintViolated(
            f"2* int F_omega = {level_base:.3e} is not positive: the dual "
            f"Pohozaev identity fails")
    return float(level_base ** (2.0 / params.dim))
