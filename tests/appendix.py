"""The paper's appendix checks and other properties that only the tests
evaluate: the radial decay bound, the Gagliardo-Nirenberg ratio for u^2,
the uniform sup-bound of a ladder, the critical key estimate, the sign
window of M' near omega = 0, the agreement of the two M' routes, the
sampled Aubin-Talenti bubble and the positive-decreasing profile test.
They are built from the package's functionals; the pipeline never calls
them.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from qground.asymptotics import AubinTalenti, MassCurvePoint
from qground.errors import Divergent, InvalidParams
from qground.integrals import (ScalarDiagnostics, profile_moment,
                               quasi_gradient_integral)
from qground.params import (Decay, Params, RadialGrid, RadialProfile,
                            classify, sphere_area)

GUARANTEED_NEGATIVE = "guaranteed-negative"
INCONCLUSIVE = "inconclusive"


def is_positive_decreasing(profile: RadialProfile) -> bool:
    """Positivity and monotone nonincrease up to 1e-10 * height.

    The slack sits just above the integrator's 1e-11 relative
    tolerance: profiles with very flat cores decrease by less than the
    integration noise between neighboring nodes.
    """
    values = profile.values
    tol = 1e-10 * (abs(values[0]) if values.size else 1.0)
    positive = np.all(values > -tol)
    monotone = np.all(np.diff(values) <= tol)
    return bool(positive and monotone)


def radial_decay_check(u: RadialProfile, s: float, dim: int) -> bool:
    """Pointwise bound |u(x)| <= C_{N,s} |u|_{L^s} |x|^{-N/s} for radial
    nonincreasing u, with C_{N,s} = (N / |S^{N-1}|)^{1/s}, up to a relative
    slack of 1e-9.

    Returns False when u is not nonincreasing (the bound presumes it).
    """
    if not is_positive_decreasing(u):
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


def critical_key_residual(d: ScalarDiagnostics, params: Params) -> float:
    """Relative residual of delta Q_grad = omega M / (N-2) (critical p only)."""
    if d.mass is None:
        raise Divergent("critical key estimate needs a finite mass")
    lhs = params.delta * d.quasi_grad
    rhs = params.omega * d.mass / (params.dim - 2)
    return abs(lhs - rhs) / max(abs(rhs), abs(lhs))


def mprime_sign_window(dim: int, p) -> str:
    """Sign guarantee for M' near omega = 0 in the supercritical regime.

    The quadratic C(p) = -(N/2) p^2 + 2(N+2) p - (3N^2+10N)/(2(N-2)) is
    negative for every admissible p when N <= 5; for N >= 6 its two roots
    p_-(N) < p_+(N) delimit the inconclusive window.  C < 0 forces
    M'(omega) < 0 for small omega; in particular p >= 3 + 4/N always
    lands outside the window.
    """
    params = Params(dim, p, 1.0, 1.0)
    regime = classify(params)
    if not regime.is_supercritical:
        raise InvalidParams("the sign window applies to supercritical p only")
    if dim <= 5:
        return GUARANTEED_NEGATIVE
    pv = params.p
    c = -0.5 * dim * pv ** 2 + 2.0 * (dim + 2.0) * pv \
        - (3.0 * dim ** 2 + 10.0 * dim) / (2.0 * (dim - 2.0))
    return GUARANTEED_NEGATIVE if c < 0 else INCONCLUSIVE


def mprime_agreement(point: MassCurvePoint) -> Optional[float]:
    """Relative gap of the finite-difference and resolvent M' of a point,
    None where either is missing."""
    if point.mprime_fd is None or point.mprime_res is None:
        return None
    scale = max(abs(point.mprime_fd), abs(point.mprime_res), 1e-300)
    return abs(point.mprime_fd - point.mprime_res) / scale


def sample_bubble(bubble: AubinTalenti, grid: RadialGrid) -> RadialProfile:
    """The bubble on the nodes of `grid`, with its exact power tail."""
    n = bubble.dim
    amp = (n * (n - 2.0)) ** ((n - 2.0) / 2.0)
    decay = Decay(n, amplitude=amp, match_radius=grid.r_max)
    return RadialProfile(grid=grid, values=bubble.value(grid.nodes),
                         derivative_values=bubble.derivative(grid.nodes),
                         decay=decay)
