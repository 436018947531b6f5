"""Small-frequency asymptotics: regime-specific limits, scaling-law fits
and the explicit bubble profile of the critical regime.

The three regimes behave differently as omega -> 0+:

  subcritical    u rescales onto the NLS ground state Q; the mass has the
                 two-term expansion
                 M = w^l |Q|_2^2 + w^{l+2/(p-1)} c(N,p) delta |grad(Q^2)|_2^2 + ...
                 with l = (4 - N(p-1)) / (2(p-1)) and
                 c = (2(p-1) + 8 - N(p-1)) / (4(p-1)).
  critical       u concentrates on the explicit bubble U after the blow-up
                 rescaling lambda^{(N-2)/2} u(lambda x), with power laws
                 (log-corrected in dimension 4) for lambda, M and the
                 level gap m_omega - m_*.
  supercritical  u converges to the zero-mass solution u_0; M tends to
                 |u_0|_2^2 for N >= 5 and diverges for N in {3, 4}.

Everything here consumes computed branch data; nothing in this module
runs a solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (InsufficientNeighbors, InsufficientWindow,
                     InvalidParams, RegimeMismatch)
from .integrals import sobolev_constant
from .params import Params, RadialProfile, classify


# ---------------------------------------------------------------------------
# branch data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MassCurvePoint:
    """One point of the mass curve with both derivative routes."""

    omega: float
    mass: Optional[float]
    mprime_fd: Optional[float]
    mprime_res: Optional[float]
    dirichlet: float
    beta: float
    quasi_grad: float
    energy: float
    m_omega: Optional[float]
    lambda_omega: Optional[float]


def sorted_points(points: Sequence[MassCurvePoint]) -> list[MassCurvePoint]:
    return sorted(points, key=lambda q: q.omega)


# ---------------------------------------------------------------------------
# ladder derivatives (uniform in log omega)
# ---------------------------------------------------------------------------

def _fd_weights(x: np.ndarray, x0: float, order: int = 1) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg's recursion)."""
    n = len(x)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2, c5, c4 = 1.0, c4, x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def ladder_derivative(omegas: Sequence[float], values: Sequence[float],
                      index: int) -> float:
    """d(value)/d(omega) at a ladder point, differenced in log(omega).

    Uses the five nearest points (a fourth-order stencil, centered where
    the point is well interior, shifted near the ends), falling back to
    whatever the ladder offers when it is shorter.  Endpoints raise
    InsufficientNeighbors.
    """
    x = np.log(np.asarray(omegas, dtype=float))
    y = np.asarray(values, dtype=float)
    n = len(x)
    if not 0 < index < n - 1:
        raise InsufficientNeighbors("ladder derivative needs both neighbors")
    width = min(5, n)
    lo = min(max(0, index - width // 2), n - width)
    weights = _fd_weights(x[lo:lo + width], float(x[index]))
    d = float(weights @ y[lo:lo + width])
    return d / math.exp(x[index])


def aitken_limit(values: Sequence[float]) -> float:
    """Aitken delta-squared limit of a geometrically converging sequence.

    For v_k = v* + c q^k the formula is exact; it is applied to the last
    three entries (ordered toward the limit)."""
    v = np.asarray(values, dtype=float)
    if len(v) < 3:
        raise InsufficientWindow("Aitken needs at least three points")
    a, b, c = v[-3], v[-2], v[-1]
    denom = c - 2.0 * b + a
    if denom == 0.0:
        return float(c)
    return float(c - (c - b) ** 2 / denom)


# ---------------------------------------------------------------------------
# scaling-law fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FitResult:
    """A log-log regression y ~ prefactor * w^exponent * log(1/w)^log_exponent.

    The logarithm's exponent is never fitted: it is fixed from the model
    under test (0 for a pure power), so both candidate models carry the
    same two free parameters and AICc comparison reduces to residual size.
    """

    model: str
    exponent: float
    prefactor: float
    log_exponent: float
    r_squared: float
    rss: float
    aicc: float
    window: tuple[float, float]


def aicc(rss: float, n: int, k: int) -> float:
    if n <= k + 1:
        return math.inf
    return n * math.log(max(rss, 1e-300) / n) + 2 * k \
        + 2.0 * k * (k + 1) / (n - k - 1)


def fit_power_law(omegas: Sequence[float], values: Sequence[float],
                  log_exponent: float = 0.0) -> FitResult:
    """Least-squares fit of log(value) = log(c) + a log(w) + b log(log(1/w))
    with b fixed to `log_exponent`."""
    w = np.asarray(omegas, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(w) < 3:
        raise InsufficientWindow("power-law fit needs at least three points")
    if not np.all(np.isfinite(v) & (v > 0) & np.isfinite(w) & (w > 0)):
        raise InvalidParams("power-law fit needs finite positive data")
    if log_exponent != 0.0 and np.any(w >= 1):
        raise InvalidParams("log-corrected models need omega < 1")
    x = np.log(w)
    y = np.log(v)
    if log_exponent != 0.0:
        y = y - log_exponent * np.log(np.log(1.0 / w))
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rss = float(np.sum(resid ** 2))
    tss = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return FitResult(
        model="power" if log_exponent == 0.0 else "power-log",
        exponent=float(coef[1]), prefactor=float(math.exp(coef[0])),
        log_exponent=log_exponent, r_squared=r2, rss=rss,
        aicc=aicc(rss, len(w), 2), window=(float(w.min()), float(w.max())))


# ---------------------------------------------------------------------------
# the critical bubble
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AubinTalenti:
    """The explicit extremal profile of the critical Sobolev inequality,

        U(x) = (1 + |x|^2 / (N(N-2)))^{-(N-2)/2},

    normalized by U(0) = 1, solving Lap(U) + U^{(N+2)/(N-2)} = 0.  W is the
    dilation U(sqrt(m_*) x), with m_* = sobolev_constant(N), which carries
    unit critical norm and Dirichlet energy m_*; |grad U|_2^2 = m_*^{N/2}.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 3:
            raise InvalidParams("the bubble profile needs N >= 3")

    def value(self, rho):
        n = self.dim
        rho = np.asarray(rho, dtype=float)
        out = (1.0 + rho ** 2 / (n * (n - 2.0))) ** (-(n - 2.0) / 2.0)
        return out if out.ndim else float(out)

    def derivative(self, rho):
        n = self.dim
        rho = np.asarray(rho, dtype=float)
        out = -(rho / n) * (1.0 + rho ** 2 / (n * (n - 2.0))) ** (-n / 2.0)
        return out if out.ndim else float(out)


def extract_lambda(u: RadialProfile, params: Params) -> float:
    """Blow-up scale pinned by the origin value: lambda = u(0)^{-2/(N-2)},
    so that lambda^{(N-2)/2} u(lambda x) has value 1 at x = 0."""
    if params.dim < 3:
        raise InvalidParams("the blow-up scale needs N >= 3")
    return float(u.values[0]) ** (-2.0 / (params.dim - 2.0))


def bubble_distance(u: RadialProfile, params: Params) -> float:
    """Sup distance of the blow-up rescaled profile to U on [0, 5], over
    400 evenly spaced points."""
    lam = extract_lambda(u, params)
    bubble = AubinTalenti(params.dim)
    x = np.linspace(0.0, 5.0, 400)
    rescaled = lam ** ((params.dim - 2.0) / 2.0) * u(lam * x)
    return float(np.max(np.abs(rescaled - bubble.value(x))))


# ---------------------------------------------------------------------------
# regime checks
# ---------------------------------------------------------------------------

def subcritical_expansion_check(points: Sequence[MassCurvePoint],
                                q_report, params: Params) -> dict:
    """Fit the two-term mass expansion against its predicted coefficients.

    On the ladder, M * w^{-l} = A + B t + O(t^2) with t = w^{2/(p-1)}; the
    intercept A must match |Q|_2^2 and the slope B the coefficient
    c(N,p) * delta * |grad(Q^2)|_2^2.  Returns fitted and predicted
    values plus relative errors.
    """
    if not classify(params).is_subcritical:
        raise RegimeMismatch("subcritical expansion needs the subcritical regime")
    pts = sorted_points(points)
    n, p = params.dim, params.p
    lead = (4.0 - n * (p - 1.0)) / (2.0 * (p - 1.0))
    w = np.array([q.omega for q in pts])
    mass = np.array([q.mass for q in pts])
    g = mass * w ** (-lead)
    t = w ** (2.0 / (p - 1.0))
    design = np.column_stack([np.ones_like(t), t])
    (a_fit, b_fit), *_ = np.linalg.lstsq(design, g, rcond=None)
    q_diag = q_report.diagnostics
    a_pred = q_diag.mass
    coeff = (2.0 * (p - 1.0) + 8.0 - n * (p - 1.0)) / (4.0 * (p - 1.0))
    b_pred = coeff * params.delta * 4.0 * q_diag.quasi_grad
    return {
        "leading_exponent": lead,
        "intercept_fit": float(a_fit),
        "intercept_predicted": float(a_pred),
        "intercept_rel_err": abs(a_fit - a_pred) / a_pred,
        "correction_fit": float(b_fit),
        "correction_predicted": float(b_pred),
        "correction_rel_err": abs(b_fit - b_pred) / abs(b_pred)
        if b_pred != 0 else abs(b_fit),
        "correction_coefficient": coeff,
    }


def _mprime_trend(window: Sequence[MassCurvePoint]) -> dict:
    """M' < 0 and |M'| increasing toward omega = 0 over a window of points,
    from the resolvent M' where it exists and the finite difference
    otherwise."""
    known = []
    for q in window:
        mp = q.mprime_res if q.mprime_res is not None else q.mprime_fd
        if mp is not None:
            known.append((q.omega, mp))
    mags = [abs(mp) for _, mp in sorted(known, key=lambda t: -t[0])]
    return {"mprime_all_negative": all(mp < 0 for _, mp in known),
            "mprime_magnitude_increasing": all(
                b > a for a, b in zip(mags, mags[1:]))}


def critical_scaling_report(points: Sequence[MassCurvePoint], params: Params,
                            last_profile: Optional[RadialProfile] = None
                            ) -> dict:
    """Log-log fits of M, lambda and the level gap on a critical ladder.

    Exponent fits use the 8 smallest frequencies: the approach to the power
    laws carries omega^{1/4}-type corrections (N = 3), so the crossover end
    of the ladder would bias the slopes.  For N = 4 the pure-power and
    fixed-log-exponent models (M carries log exponent +1/2, lambda -1/4) are
    compared by AICc over the 15 smallest points; on wider windows neither
    model is meaningful since both miss the crossover.  Also checks M' < 0 with |M'| increasing toward
    omega = 0, and the decrease of omega * lambda^2 along the ladder.
    """
    if not classify(params).is_critical:
        raise RegimeMismatch("critical scaling needs the critical regime")
    pts = sorted_points(points)
    w = np.array([q.omega for q in pts])
    if w.max() / w.min() < 1e3:
        raise InsufficientWindow("critical fits need >= 3 decades of omega")
    mass = np.array([q.mass for q in pts])
    lam = np.array([q.lambda_omega for q in pts])
    m_star = sobolev_constant(params.dim)
    gap = np.array([q.m_omega - m_star for q in pts])

    out: dict = {"m_star": m_star}
    k = min(8, len(pts))
    out["mass_fit"] = fit_power_law(w[:k], mass[:k])
    out["lambda_fit"] = fit_power_law(w[:k], lam[:k])
    out["gap_fit"] = fit_power_law(w[:k], gap[:k])
    if params.dim == 4:
        s = min(15, len(pts))
        mass_pure = fit_power_law(w[:s], mass[:s])
        mass_log = fit_power_law(w[:s], mass[:s], log_exponent=0.5)
        lam_pure = fit_power_law(w[:s], lam[:s])
        lam_log = fit_power_law(w[:s], lam[:s], log_exponent=-0.25)
        out["mass_fit_log"] = mass_log
        out["lambda_fit_log"] = lam_log
        out["mass_log_preferred"] = mass_log.aicc < mass_pure.aicc
        out["lambda_log_preferred"] = lam_log.aicc < lam_pure.aicc

    # the monotonicity statements hold in a neighborhood of omega = 0, so
    # they are checked on the asymptotic window: the mass curve may
    # genuinely turn around at moderate omega
    out.update(_mprime_trend(pts[:k]))
    product = np.sqrt(w) * lam
    out["lambda_sqrt_omega_decreasing"] = bool(
        np.all(np.diff(product) >= 0))   # increasing in omega = decreasing down the ladder
    out["gap_nonnegative"] = bool(np.all(gap >= -1e-9 * m_star))
    if last_profile is not None:
        out["bubble_distance"] = bubble_distance(last_profile, params)
    return out


def supercritical_limit_check(points: Sequence[MassCurvePoint], u0_report,
                              params: Params) -> dict:
    """Limits of the supercritical branch against the zero-mass solution.

    Checks omega M -> 0 monotonically; for N >= 5 extrapolates M to
    |u_0|_2^2, for N in {3, 4} verifies unbounded mass growth.  The M'
    trend (negative, growing in magnitude) is checked on the asymptotic
    window of the 11 smallest frequencies.
    """
    if not classify(params).is_supercritical:
        raise RegimeMismatch("supercritical limits need the supercritical regime")
    pts = sorted_points(points)
    w = np.array([q.omega for q in pts])
    mass = np.array([q.mass for q in pts])
    out: dict = {}
    wm = w * mass
    out["omega_mass_to_zero_monotone"] = bool(np.all(np.diff(wm) > 0))
    if params.dim >= 5:
        u0_mass = u0_report.diagnostics.mass
        m_limit = aitken_limit(mass[::-1])
        out["mass_limit_extrapolated"] = m_limit
        out["u0_mass"] = u0_mass
        out["mass_limit_rel_err"] = abs(m_limit - u0_mass) / u0_mass
    else:
        out["mass_growth_factor"] = float(mass[0] / mass[-1])
    out.update(_mprime_trend(pts[:11]))
    return out


def energy_identity_residuals(points: Sequence[MassCurvePoint]) -> list[float]:
    """|E' + (omega/2) M'| / |(omega/2) M'| at interior ladder points,
    both sides by centered differences in log omega."""
    pts = sorted_points(points)
    w = [q.omega for q in pts]
    energy = [q.energy for q in pts]
    mass = [q.mass for q in pts]
    res = []
    for i in range(1, len(pts) - 1):
        ep = ladder_derivative(w, energy, i)
        mp = ladder_derivative(w, mass, i)
        rhs = -0.5 * w[i] * mp
        res.append(abs(ep - rhs) / max(abs(rhs), 1e-300))
    return res


def energy_limit_check(points: Sequence[MassCurvePoint], params: Params,
                       u0_report=None) -> dict:
    """Limit of E(omega) as omega -> 0 in each regime.

    subcritical -> 0, critical -> |grad U|_2^2 / N = m_*^{N/2} / N,
    supercritical -> 2 |grad u_0|_2^2 / ((3N+2) - p(N-2)).
    """
    regime = classify(params)
    pts = sorted_points(points)
    energies = np.array([q.energy for q in pts])
    out: dict = {"energy_identity_residuals": energy_identity_residuals(points)}
    e_limit = aitken_limit(energies[::-1])
    out["energy_limit_extrapolated"] = float(e_limit)
    if regime.is_subcritical:
        out["energy_limit_predicted"] = 0.0
        out["energy_limit_abs_err"] = abs(e_limit)
        scale = abs(energies[-1])  # largest omega sets the natural scale
        out["energy_limit_rel_err"] = abs(e_limit) / scale if scale else 0.0
    elif regime.is_critical:
        predicted = sobolev_constant(params.dim) ** (params.dim / 2.0) / params.dim
        out["energy_limit_predicted"] = predicted
        out["energy_limit_rel_err"] = abs(e_limit - predicted) / predicted
    else:
        if u0_report is None:
            raise InvalidParams("supercritical energy limit needs the "
                                "zero-mass solve")
        n, p = params.dim, params.p
        predicted = 2.0 * u0_report.diagnostics.dirichlet \
            / ((3.0 * n + 2.0) - p * (n - 2.0))
        out["energy_limit_predicted"] = predicted
        out["energy_limit_rel_err"] = abs(e_limit - predicted) / predicted
    return out
