"""Output checks computed apart from qground.

Integrals use the benchmark's own quadrature: Simpson's rule in rho on the
profile's nodes (not qground.integrals, which integrates in the grid's
stretching parameter with closed-form tail corrections).  Beyond R_max the
profiles are below 1e-6 of their height (exponential tails at R_max >= 15
decay lengths, power tails at R_max = 1000), so the omitted tails lie far
below the tolerances used here.

The identities are the ones a ground state of

    Lap(u) - omega u + |u|^{p-1} u + delta Lap(u^2) u = 0

must satisfy, with T = int |grad u|^2, Q = int u^2 |grad u|^2,
P = int |u|^{p+1}, M = int u^2:

    Nehari    (test with u):          T/2 + 2 delta Q - P/2 + omega M/2 = 0
    Pohozaev  (dilation u(x/l)):  (N-2)/(2N) T + (N-2)/N delta Q
                                    - P/(p+1) + omega M/2 = 0
    critical p = (N+2)/(N-2):         delta Q = omega M / (N-2)
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import simpson


def radial_integral(values: np.ndarray, nodes: np.ndarray, dim: int) -> float:
    """int over R^N of a radial function given on the nodes."""
    area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return area * float(simpson(values * nodes ** (dim - 1), x=nodes))


def functionals(u, p: float, dim: int) -> dict[str, float]:
    """T, Q, P and M of a sampled profile by the benchmark's quadrature."""
    nodes, uu, up = u.grid.nodes, u.values, u.derivative_values
    return {
        "T": radial_integral(up ** 2, nodes, dim),
        "Q": radial_integral(uu ** 2 * up ** 2, nodes, dim),
        "P": radial_integral(np.abs(uu) ** (p + 1.0), nodes, dim),
        "M": radial_integral(uu ** 2, nodes, dim),
    }


def identity_residuals(f: dict[str, float], dim: int, p: float, delta: float,
                       omega: float) -> tuple[float, float]:
    """Pohozaev and Nehari residuals relative to T (mass term dropped at
    omega = 0, where M need not be finite)."""
    mass = 0.5 * omega * f["M"] if omega > 0 else 0.0
    poh = (dim - 2) / (2.0 * dim) * f["T"] + (dim - 2) / dim * delta * f["Q"] \
        - f["P"] / (p + 1.0) + mass
    neh = 0.5 * f["T"] + 2.0 * delta * f["Q"] - 0.5 * f["P"] + mass
    return abs(poh) / f["T"], abs(neh) / f["T"]


def h_error(u: np.ndarray, v: np.ndarray, delta: float) -> float:
    """max |h(u) - v| / v(0) with h in closed form,
    h(t) = t sqrt(1 + 2 delta t^2)/2 + asinh(sqrt(2 delta) t)/(2 sqrt(2 delta))."""
    if delta == 0.0:
        hu = u
    else:
        s = math.sqrt(2.0 * delta)
        hu = 0.5 * u * np.sqrt(1.0 + 2.0 * delta * u * u) \
            + np.arcsinh(s * u) / (2.0 * s)
    return float(np.max(np.abs(hu - v))) / float(v[0])


def positive_nonincreasing(values: np.ndarray, slack: float = 1e-10) -> bool:
    """u > 0 and u nonincreasing up to `slack` times the height: flat cores
    decrease by less than the integrator's 1e-11 relative tolerance between
    neighbouring nodes."""
    return bool(np.all(values > 0.0)
                and np.all(np.diff(values) <= slack * values[0]))


def log_slope_derivative(omegas, masses, i: int) -> float:
    """M'(omega_i) by the centred difference of log M in log omega,
    M' = (M/omega) d log M / d log omega: exact for a power law, second
    order otherwise."""
    slope = (math.log(masses[i + 1]) - math.log(masses[i - 1])) \
        / (math.log(omegas[i + 1]) - math.log(omegas[i - 1]))
    return slope * masses[i] / omegas[i]
