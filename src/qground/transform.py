"""The change of variables between the quasilinear and semilinear problems.

With coupling delta > 0, v = h(u) turns the quasilinear equation into
-Delta v = f_omega at v.  The forward map has the closed form

    h(t) = t*sqrt(1 + 2*delta*t^2)/2 + asinh(sqrt(2*delta)*t)/(2*sqrt(2*delta))

whose derivative is h'(t) = sqrt(1 + 2*delta*t^2), so the inverse r = h^{-1}
satisfies r'(s) = 1/h'(r(s)), r(0) = 0, extended to s < 0 as an odd
function, and r''(s) = -2*delta*r(s)*r'(s)^4.

With P_omega(tau) = |tau|^(p-1)*tau - omega*tau, the dual nonlinearity,
its primitive and its derivative at s are

    f_omega  = r'(s) * P_omega(r(s)),
    F_omega  = |r(s)|^(p+1)/(p+1) - omega*r(s)^2/2,
    f_omega' = r''(s)*P_omega(r(s)) + r'(s)^2 * P_omega'(r(s)).

Every one of these is a closed-form function of u = r(s), and only the u
forms are provided (f_omega_u, F_omega_u, f_omega_prime_u, h_prime): the
solver, the quadrature and the spectral assembly evaluate them on u
directly.  The inverse r itself has no closed form; one scalar,
safeguarded Newton solve of h(x) = s gives it exact to rounding (the
negative branch goes through sign symmetry, and an array runs through it
element by element).  It runs only where a value of v is given: the launch
height, the fitted tail nodes of the profile, and the warm-start guess.

Every function takes the validated Params last; only params.delta enters
h and r.  delta = 0 degenerates to the identity transform (r(s) = s),
which serves as the plain-NLS oracle.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence
from .params import Params


#: relative Newton step after which one more step makes the inverse of h
#: exact to rounding
NEWTON_TOL = 1e-14
#: Newton steps allowed to the inversion of h
MAX_NEWTON_ITER = 60


def h(t, params: Params):
    """Forward map h(t); strictly increasing with h(0) = 0 and h(t) >= t."""
    t = np.asarray(t, dtype=float)
    if params.delta == 0.0:
        out = t
    else:
        d = params.delta
        s2d = math.sqrt(2.0 * d)
        out = 0.5 * t * np.sqrt(1.0 + 2.0 * d * t * t) \
            + np.arcsinh(s2d * t) / (2.0 * s2d)
    return out if np.ndim(out) else float(out)


def _invert(s: float, d: float) -> float:
    """Safeguarded Newton solve of h(x) = |s| by the bracket [0, |s|],
    signed like s.  h is increasing and convex on x > 0, and both starts
    lie at or above the root, so the iterates fall monotonically; once a
    step is NEWTON_TOL relative, one more step leaves only rounding."""
    a = abs(s)
    s2d = math.sqrt(2.0 * d)
    # r(s) <= s always; (2/d)^(1/4)*sqrt(s) is the large-s asymptote
    x = min(a, (2.0 / d) ** 0.25 * math.sqrt(a))
    lo, hi = 0.0, a
    done = False
    for _ in range(MAX_NEWTON_ITER):
        root = math.sqrt(1.0 + 2.0 * d * x * x)
        f = 0.5 * x * root + math.asinh(s2d * x) / (2.0 * s2d) - a
        if f > 0.0:
            hi = x
        else:
            lo = x
        xn = x - f / root
        if done:
            return math.copysign(xn, s)
        if not lo <= xn <= hi:
            xn = 0.5 * (lo + hi)
        done = abs(xn - x) <= NEWTON_TOL * xn
        x = xn
    raise NoConvergence(f"Newton inversion of h stalled at s = {s}")


def r(s, params: Params):
    """Inverse map r = h^{-1}, odd on all of R; |r(s)| <= |s|.

    An array runs through the scalar Newton solve element by element."""
    if params.delta == 0.0:
        return np.array(s, dtype=float) if np.ndim(s) else float(s)
    if np.ndim(s):
        return np.vectorize(_invert, otypes=[float])(s, params.delta)
    return _invert(float(s), params.delta)


def h_prime(u, params: Params):
    """h'(u) = sqrt(1 + 2*delta*u^2) >= 1, so r'(h(u)) = 1/h'(u)."""
    out = np.sqrt(1.0 + 2.0 * params.delta * np.square(u))
    return out if np.ndim(out) else float(out)


def f_omega_u(u, params: Params):
    """f_omega at h(u): (|u|^(p-1) u - omega u) / h'(u), closed form in u."""
    out = (np.abs(u) ** (params.p - 1.0) * u - params.omega * u) \
        / h_prime(u, params)
    return out if np.ndim(out) else float(out)


def F_omega_u(u, params: Params):
    """F_omega at h(u): |u|^(p+1)/(p+1) - omega*u^2/2, closed form in u."""
    p = params.p
    out = np.abs(u) ** (p + 1.0) / (p + 1.0) - 0.5 * params.omega * np.square(u)
    return out if np.ndim(out) else float(out)


def f_omega_prime_u(u, params: Params):
    """f_omega' at h(u): r'' P_omega(u) + (r')^2 P_omega'(u), closed form in u."""
    p, omega = params.p, params.omega
    rp2 = 1.0 / (1.0 + 2.0 * params.delta * np.square(u))
    rpp = -2.0 * params.delta * u * rp2 * rp2
    p_val = np.abs(u) ** (p - 1.0) * u - omega * u
    p_der = p * np.abs(u) ** (p - 1.0) - omega
    out = rpp * p_val + rp2 * p_der
    return out if np.ndim(out) else float(out)


def s_star(params: Params) -> float:
    """Positive zero of F_omega: solves r(s*)^(p-1) = (p+1)*omega/2.

    F_omega < 0 on (0, s*) and > 0 beyond; trajectories started at or below
    s* can never reach zero, which makes s* the natural lower shooting
    bracket.  Returns 0 for omega = 0 (F_0 > 0 everywhere).
    """
    if params.omega == 0.0:
        return 0.0
    p = params.p
    tau = ((p + 1.0) * params.omega / 2.0) ** (1.0 / (p - 1.0))
    return float(h(tau, params))
