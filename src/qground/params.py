"""Model parameters, regime classification, radial grids and sampled profiles.

The stationary equation lives on R^N with an exponent p, a quasilinear
coupling delta and a frequency omega.  Everything downstream (solver,
quadrature, spectra, asymptotics) shares the types defined here.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from scipy.interpolate import CubicHermiteSpline
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn
from scipy.special import kve

from .errors import Divergent, InvalidParams

# Sobolev regime tags
SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"
# Mass regime tags (thresholds 1 + 4/N and 3 + 4/N)
MASS_SUBCRITICAL = "mass-subcritical"
MASS_CRITICAL_PLUS = "mass-critical-plus"

#: decimal inputs within this window of the critical exponent are
#: classified critical; exact rationals are compared exactly.
CRITICAL_WINDOW = 1e-12

ExponentLike = Union[int, float, str, Fraction]


def _parse_exponent(p: ExponentLike) -> tuple[float, Optional[Fraction]]:
    """Return (float value, exact Fraction or None) for an exponent input.

    Ints, Fractions and strings like "7/3" are kept exact so the critical
    regime can be detected by rational comparison.  Bare floats are not
    promoted: they classify through the CRITICAL_WINDOW tolerance instead.
    """
    if isinstance(p, Fraction):
        return float(p), p
    if isinstance(p, int):
        return float(p), Fraction(p)
    if isinstance(p, str):
        try:
            frac = Fraction(p)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParams(f"exponent {p!r} is not a finite rational") \
                from exc
        return float(frac), frac
    return float(p), None


@dataclass(frozen=True)
class Params:
    """Parameters (N, p, delta, omega) of the stationary problem.

    delta = 0 selects the plain NLS oracle; omega = 0 selects the zero-mass
    problem.  Construction validates the existence condition
    p < (3N+2)/(N-2) for N >= 3.
    """

    dim: int
    p: float
    delta: float
    omega: float
    p_exact: Optional[Fraction] = field(default=None, compare=False)

    def __init__(self, dim: int, p: ExponentLike, delta: float, omega: float):
        p_val, p_frac = _parse_exponent(p)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "p", p_val)
        object.__setattr__(self, "p_exact", p_frac)
        object.__setattr__(self, "delta", float(delta))
        object.__setattr__(self, "omega", float(omega))
        self._validate()

    def _validate(self) -> None:
        for name in ("p", "delta", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParams(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.dim < 2:
            raise InvalidParams(f"dim must be >= 2, got {self.dim}")
        if not self.p > 1:
            raise InvalidParams(f"exponent p must be > 1, got {self.p}")
        if self.delta < 0:
            raise InvalidParams(f"coupling delta must be >= 0, got {self.delta}")
        if self.omega < 0:
            raise InvalidParams(f"frequency omega must be >= 0, got {self.omega}")
        if self.dim >= 3:
            bound = self.p_existence_max()
            exceeded = (self.p_exact >= bound) if self.p_exact is not None else (
                self.p >= float(bound) - CRITICAL_WINDOW
            )
            if exceeded:
                raise InvalidParams(
                    f"p = {self.p} violates the existence bound p < (3N+2)/(N-2)"
                    f" = {bound} for N = {self.dim}"
                )

    # -- exponent thresholds ------------------------------------------------

    def p_critical(self) -> Optional[Fraction]:
        """Sobolev-critical exponent (N+2)/(N-2); None in dimension 2."""
        if self.dim == 2:
            return None
        return Fraction(self.dim + 2, self.dim - 2)

    def p_mass_critical(self) -> Fraction:
        return 1 + Fraction(4, self.dim)

    def p_blowup(self) -> Fraction:
        return 3 + Fraction(4, self.dim)

    def p_existence_max(self) -> Fraction:
        return Fraction(3 * self.dim + 2, self.dim - 2)

    def two_star(self) -> Optional[float]:
        """Critical Sobolev exponent 2N/(N-2); None in dimension 2."""
        if self.dim == 2:
            return None
        return 2.0 * self.dim / (self.dim - 2)

    def with_omega(self, omega: float) -> "Params":
        return Params(self.dim, self.p_exact if self.p_exact is not None else self.p,
                      self.delta, omega)


@dataclass(frozen=True)
class Regime:
    """Sobolev and mass regime tags of p against the Params thresholds.

    The mass tag records the position of p relative to 1 + 4/N (below or
    equal: the mass curve increases near omega = 0) and 3 + 4/N (at or
    above: unconditionally decreasing); in between it is None.
    """

    tag: str
    mass_tag: Optional[str]

    @property
    def is_critical(self) -> bool:
        return self.tag == CRITICAL

    @property
    def is_subcritical(self) -> bool:
        return self.tag == SUBCRITICAL

    @property
    def is_supercritical(self) -> bool:
        return self.tag == SUPERCRITICAL


def _compare_to_threshold(params: Params, threshold: Fraction) -> int:
    """-1, 0, +1 for p below / at / above the threshold."""
    if params.p_exact is not None:
        d = params.p_exact - threshold
        return (d > 0) - (d < 0)
    d = params.p - float(threshold)
    if abs(d) < CRITICAL_WINDOW:
        return 0
    return 1 if d > 0 else -1


def classify(params: Params) -> Regime:
    """Classify (N, p) into the subcritical / critical / supercritical regime.

    Dimension 2 is always subcritical.  Criticality requires exact rational
    equality p = (N+2)/(N-2) (decimal inputs use a 1e-12 window).
    """
    if params.dim == 2:
        tag = SUBCRITICAL
    else:
        cmp = _compare_to_threshold(params, params.p_critical())
        tag = (SUBCRITICAL, CRITICAL, SUPERCRITICAL)[cmp + 1]
    mass_cmp = _compare_to_threshold(params, params.p_mass_critical())
    blowup_cmp = _compare_to_threshold(params, params.p_blowup())
    if mass_cmp <= 0:
        mass_tag: Optional[str] = MASS_SUBCRITICAL
    elif blowup_cmp >= 0:
        mass_tag = MASS_CRITICAL_PLUS
    else:
        mass_tag = None
    return Regime(tag=tag, mass_tag=mass_tag)


# ---------------------------------------------------------------------------
# radial grids
# ---------------------------------------------------------------------------

#: grid lengths in units of the profile width ell = 1/sqrt(max(omega, 1)):
#: the core and the least R_max; exponential tails also need
#: MIN_DECAY_LENGTHS decay lengths 1/sqrt(omega), beyond which they carry
#: about e^{-30} of a moment; power tails (omega = 0) need plain range
R_CORE = 20.0
R_OUTER = 50.0
MIN_DECAY_LENGTHS = 15.0
ZERO_MASS_R_MAX = 1000.0
MIN_RESOLUTION = 64
#: largest grid resolution; every caller stays at or below 2048
MAX_RESOLUTION = 2 ** 16
CORE_NODE_FRACTION = 0.6
#: largest stretch alpha of the sinh map; it puts a core fraction of
#: R_max as small as sinh(48)/sinh(80) ~ 1.3e-14 under CORE_NODE_FRACTION
MAX_STRETCH = 80.0


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes r_0 = 0 < ... < r_M = R_max.

    Nodes come from the smooth stretching map
        rho(xi) = R_max * sinh(alpha * xi) / sinh(alpha),  xi in [0, 1]
    sampled at uniform xi.  The map keeps the node density high near the
    origin and sparse in the tail without any spacing seam, so second-order
    stencils and Simpson weights keep their formal order across the whole
    domain.  `jacobian` holds d rho / d xi at the nodes.
    """

    nodes: np.ndarray
    jacobian: np.ndarray
    xi: np.ndarray
    alpha: float
    r_max: float

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.jacobian.setflags(write=False)
        self.xi.setflags(write=False)

    @property
    def resolution(self) -> int:
        return len(self.nodes) - 1

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0])

    def midpoints(self) -> np.ndarray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])


def make_grid(params: Params, resolution: int) -> RadialGrid:
    """Build the radial grid of `params` from one length scale.

    The profile width is ell = 1/sqrt(max(omega, 1)).  About 60% of the
    nodes land inside the core [0, 20 ell], and R_max = max(50 ell,
    15/sqrt(omega)), so R_max spans at least 15 decay lengths 1/sqrt(omega)
    by construction: the integrals drop the exponential tail past R_max.
    For omega = 0 the power tail needs plain range, R_max = ZERO_MASS_R_MAX
    = 1000.  In the critical regime the solution spreads over the blow-up
    length ~ omega^{-1/N}, so the core widens with it: a fixed core would
    leave the bubble under-resolved at very small frequencies.  The
    resolution is rounded up to a multiple of 4, so Simpson's rule sees an
    even count on this grid and on the two halvings of the M' Richardson
    levels (spectra.coarsen_profile).
    """
    omega = params.omega
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise InvalidParams(f"resolution must lie in "
                            f"[{MIN_RESOLUTION}, {MAX_RESOLUTION}]")
    resolution = -(-int(resolution) // 4) * 4
    inv_ell = math.sqrt(max(omega, 1.0))
    r_core, r_max = R_CORE / inv_ell, ZERO_MASS_R_MAX
    if omega > 0:
        r_max = max(R_OUTER / inv_ell, MIN_DECAY_LENGTHS / math.sqrt(omega))
        if params.dim >= 3 and classify(params).is_critical:
            r_core = max(r_core, 5.0 * omega ** (-1.0 / params.dim))
    r_core = min(r_max, r_core)
    target = r_core / r_max
    if target >= CORE_NODE_FRACTION:          # nearly uniform domain
        alpha = 1e-8
    else:
        def core_gap(a):
            return np.sinh(CORE_NODE_FRACTION * a) / np.sinh(a) - target
        if core_gap(MAX_STRETCH) > 0:
            raise InvalidParams(
                f"omega = {omega:g} needs R_max = {r_max:.3g}, too far for "
                f"the grid's stretch to keep the core [0, {r_core:g}] resolved")
        alpha = brentq(core_gap, 1e-8, MAX_STRETCH)
    xi = np.linspace(0.0, 1.0, resolution + 1)
    nodes = r_max * np.sinh(alpha * xi) / np.sinh(alpha)
    nodes[0] = 0.0
    nodes[-1] = r_max
    jac = r_max * alpha * np.cosh(alpha * xi) / np.sinh(alpha)
    return RadialGrid(nodes=nodes, jacobian=jac, xi=xi, alpha=alpha, r_max=r_max)


# ---------------------------------------------------------------------------
# decay metadata and profiles
# ---------------------------------------------------------------------------

DECAY_EXPONENTIAL = "exponential"
DECAY_POWER = "power"


def sphere_area(dim: int) -> float:
    """Surface measure |S^{N-1}| = 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (dim / 2.0) / gamma_fn(dim / 2.0)


@dataclass(frozen=True)
class Decay:
    """Analytic tail attached to a profile beyond `match_radius`: the
    decaying radial solution k of the linear far field -Delta v + omega v
    = 0, fixed by the dimension N and rate = sqrt(omega) alone.

    rate > 0:  v(rho) = amplitude * rho^(-nu) * K_nu(rate * rho), with
               nu = (N-2)/2 (DLMF 10.25, 10.29), exact in every dimension
    rate = 0:  v(rho) = amplitude * rho^(-(N-2)), the zero-mass tail

    `growing` splits a state over k and the growing solution i: rho^(-nu)
    I_nu(rate * rho) for exponential tails, 1 for power tails; `moment` and
    `gradient_moment` integrate the tail past a radius.  This is the only
    place that knows either law; the Bessel functions are evaluated as
    kve(nu, x) e^{-x}, so nothing overflows.
    """

    dim: int
    rate: float = 0.0
    amplitude: float = 1.0
    match_radius: float = np.inf

    @property
    def kind(self) -> str:
        return DECAY_POWER if self.rate == 0.0 else DECAY_EXPONENTIAL

    def value(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=float)
        if self.rate == 0.0:
            return self.amplitude * rho ** -(self.dim - 2.0)
        nu, x = (self.dim - 2) / 2.0, self.rate * rho
        return self.amplitude * rho ** -nu * kve(nu, x) * np.exp(-x)

    def log_slope(self, rho: np.ndarray) -> np.ndarray:
        """-v'/v on the law, whatever the amplitude: rate K_{nu+1}/K_nu at
        rate * rho for exponential tails, (N-2)/rho for power tails."""
        rho = np.asarray(rho, dtype=float)
        if self.rate == 0.0:
            return (self.dim - 2.0) / rho
        nu, x = (self.dim - 2) / 2.0, self.rate * rho
        return self.rate * kve(nu + 1.0, x) / kve(nu, x)

    def derivative(self, rho: np.ndarray) -> np.ndarray:
        return -self.log_slope(rho) * self.value(rho)

    def growing(self, rho: float, v: float, vp: float) -> float:
        """Coefficient B of the growing solution i in (v, v') = A k + B i at
        rho: B = (k v' - k' v) / W{k, i}, where W = rho^{1-N} (DLMF 10.28.2)
        for exponential tails and (N-2) rho^{1-N} for power tails."""
        if self.rate == 0.0:
            return v + rho * vp / (self.dim - 2.0)
        nu, x = (self.dim - 2) / 2.0, self.rate * rho
        return rho ** (nu + 1.0) * np.exp(-x) * (
            kve(nu, x) * vp + self.rate * kve(nu + 1.0, x) * v)

    def matched(self, rho: float, v: float) -> "Decay":
        """The law rescaled to pass through v at the match radius rho."""
        return replace(self, amplitude=self.amplitude * v
                       / float(self.value(rho)), match_radius=rho)

    def moment(self, k: float, r_from: float, j: float = 0.0) -> float:
        """|S^{N-1}| * int_{r_from}^inf rho^{N-1+j} v(rho)^k drho.

        An exponential tail gives 0: make_grid puts R_max at least 15
        decay lengths 1/rate out by construction, and what lies beyond
        carries about e^{-30} of the moment.  A power tail gives the
        closed form, or Divergent when the integral does not converge.
        """
        if self.rate > 0.0:
            return 0.0
        q = self.dim - 2.0
        e = self.dim - 1 + j - k * q
        if e >= -1.0:
            raise Divergent(f"power tail rho^-{q} makes the k={k} moment "
                            f"diverge in dimension {self.dim}")
        return sphere_area(self.dim) * self.amplitude ** k \
            * r_from ** (e + 1.0) / (-(e + 1.0))

    def gradient_moment(self, k: float, r_from: float) -> float:
        """|S^{N-1}| * int_{r_from}^inf rho^{N-1} v^(k-2) (v')^2 drho; on a
        power tail v' = -(N-2) v / rho."""
        return (self.dim - 2.0) ** 2 * self.moment(k, r_from, -2.0)


@dataclass
class RadialProfile:
    """A radial function sampled on a grid, with decay metadata.

    Ground-state profiles are strictly positive and nonincreasing; the
    derivative at rho = 0 vanishes.  Values beyond decay.match_radius come
    from the analytic tail, never from raw integration.
    """

    grid: RadialGrid
    values: np.ndarray
    derivative_values: np.ndarray
    decay: Optional[Decay] = None
    _interp: Optional[CubicHermiteSpline] = field(default=None, repr=False)

    def __call__(self, rho):
        """Evaluate by cubic Hermite interpolation (analytic tail beyond R_max)."""
        if self._interp is None:
            self._interp = CubicHermiteSpline(
                self.grid.nodes, self.values, self.derivative_values)
        rho = np.asarray(rho, dtype=float)
        out = self._interp(np.clip(rho, 0.0, self.grid.r_max))
        if self.decay is not None:
            far = rho > self.grid.r_max
            if np.any(far):
                out = np.where(far, self.decay.value(np.maximum(rho, 1e-300)), out)
        return out if out.ndim else float(out)

    # -- serialization ------------------------------------------------------

    def to_csv(self, path) -> None:
        """Write `r,value,dvalue` rows at 17 significant digits."""
        with open(path, "w", newline="") as fh:
            self._write_csv(fh)

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self._write_csv(buf)
        return buf.getvalue()

    def _write_csv(self, fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["r", "value", "dvalue"])
        for r, v, dv in zip(self.grid.nodes, self.values, self.derivative_values):
            writer.writerow([f"{r:.17g}", f"{v:.17g}", f"{dv:.17g}"])
