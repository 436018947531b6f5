"""Finite-difference spectral analysis of the linearized operators.

L+ and L- are the real and imaginary blocks of the linearization of the
quasilinear equation around the ground state u:

    L+ w = -div((1 + 2 delta u^2) grad w) - delta (4 u Lap(u) + 2 |grad u|^2) w
           - p u^{p-1} w + omega w
    L- w = -Lap(w) - delta (2 u Lap(u) + 2 |grad u|^2) w - u^{p-1} w + omega w

and the dual-side operator is -Lap - f_omega'(v) acting on the semilinear
variable.  Each is discretized from its divergence form by a finite-volume
scheme on the radial grid, and one assembly gives both angular sectors the
spectra need: l = 0, and l = 1, which is the l = 0 matrix without the
origin's node plus the centrifugal diagonal.  Each sector's matrix is
symmetric tridiagonal under the cell-volume inner product, so SciPy's
tridiagonal eigensolver gives both the low eigenvalues and, by LAPACK's
bisection over (-inf, -tol], the negative-eigenvalue counts.  Lap(u) is
evaluated algebraically from the equation itself, never by differencing:

    Lap(u) = (omega u - u^p - 2 delta u (u')^2) / (1 + 2 delta u^2).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from . import transform
from .errors import EntryMismatch, InvalidParams, NearSingular
from .params import Params, RadialGrid, RadialProfile, sphere_area

KIND_LPLUS = "L+"
KIND_LMINUS = "L-"
KIND_DUAL = "dual"

#: cells at R_max left out of the kernel residual's numerator
KERNEL_BOUNDARY_SKIP = 3
#: largest relative disagreement of the primal and dual M' routes
MPRIME_CHECK_TOL = 5e-3
#: largest Richardson error estimate of M', relative to its natural scale
MPRIME_NEAR_SINGULAR_TOL = 0.01
#: largest closed-form vs quadratic-form mismatch of a matrix L entry
MATRIX_L_MISMATCH_TOL = 0.01


def laplacian_of_u(u: RadialProfile, params: Params) -> np.ndarray:
    """Lap(u) at the nodes, from the stationary equation (no differencing)."""
    uu, up = u.values, u.derivative_values
    num = params.omega * uu - np.abs(uu) ** (params.p - 1.0) * uu \
        - 2.0 * params.delta * uu * up ** 2
    return num / (1.0 + 2.0 * params.delta * uu ** 2)


@dataclass
class DiscreteOperator:
    """Symmetric tridiagonal discretization of a radial sector operator.

    Unknowns live on nodes start..M-1 (start = 0 with a natural Neumann
    flux for l = 0, start = 1 i.e. Dirichlet at the origin for l = 1);
    the outer boundary is Dirichlet.  `diag`/`off` hold the stiffness
    matrix K, `weights` the cell volumes D (sphere factor included), so
    the operator action is D^{-1} K and x^T K y approximates the quadratic
    form <x, L y> on R^N.
    """

    start: int
    diag: np.ndarray
    off: np.ndarray
    weights: np.ndarray

    def restrict(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float)[self.start:-1]

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum(self.weights * x * y))

    def norm(self, x: np.ndarray) -> float:
        return math.sqrt(self.inner(x, x))

    def _stiffness(self, x: np.ndarray) -> np.ndarray:
        kx = self.diag * x
        kx[:-1] += self.off * x[1:]
        kx[1:] += self.off * x[:-1]
        return kx

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._stiffness(x) / self.weights

    def form(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.sum(x * self._stiffness(y)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (D^{-1} K) w = rhs, i.e. K w = D rhs."""
        n = len(self.diag)
        ab = np.zeros((3, n))
        ab[0, 1:] = self.off
        ab[1] = self.diag
        ab[2, :-1] = self.off
        if not self.diag.any():
            raise NearSingular("zero operator")
        return solve_banded((1, 1), ab, self.weights * rhs)

    def scaled_tridiagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """D^{-1/2} K D^{-1/2}: similar to D^{-1}K, symmetric tridiagonal."""
        s = 1.0 / np.sqrt(self.weights)
        return self.diag * s * s, self.off * s[:-1] * s[1:]


def assemble(u: RadialProfile, params: Params, kind: str
             ) -> tuple[DiscreteOperator, DiscreteOperator]:
    """Finite-volume assembly of L+, L- or the dual-side operator, as its
    l = 0 and l = 1 sectors from one pass over the grid."""
    grid = u.grid
    nodes = grid.nodes
    n = params.dim
    area = sphere_area(n)
    delta = params.delta
    uu, up = u.values, u.derivative_values

    if kind == KIND_LPLUS:
        lap_u = laplacian_of_u(u, params)
        q = -delta * (4.0 * uu * lap_u + 2.0 * up ** 2) \
            - params.p * np.abs(uu) ** (params.p - 1.0) + params.omega
    elif kind == KIND_LMINUS:
        lap_u = laplacian_of_u(u, params)
        q = -delta * (2.0 * uu * lap_u + 2.0 * up ** 2) \
            - np.abs(uu) ** (params.p - 1.0) + params.omega
    elif kind == KIND_DUAL:
        # -f_omega'(v) at v = h(u), in closed form on the nodes of u
        q = -transform.f_omega_prime_u(uu, params)
    else:
        raise InvalidParams(f"unknown operator kind {kind!r}")

    mid = grid.midpoints()
    if kind == KIND_LPLUS:
        a_face = 1.0 + 2.0 * delta * u(mid) ** 2
        a_node = 1.0 + 2.0 * delta * uu ** 2
    else:
        a_face = np.ones_like(mid)
        a_node = np.ones_like(nodes)
    # face i sits between nodes i and i+1; node 0's inner face carries no
    # flux (the rho^{N-1} weight vanishes), which is the natural Neumann
    # condition of the l = 0 sector
    flux = area * a_face * mid ** (n - 1) / np.diff(nodes)
    faces_n = mid ** n
    weights = area * (faces_n - np.concatenate(([0.0], faces_n[:-1]))) / n
    diag = q[:-1] * weights + flux
    diag[1:] += flux[:-1]
    radial = DiscreteOperator(start=0, diag=diag, off=-flux[:-1],
                              weights=weights)
    # l = 1 drops node 0 (Dirichlet at the origin) and adds the centrifugal
    # term l(l+N-2) a / rho^2, integrated exactly over each cell: a
    # pointwise 1/rho^2 would lose all relative accuracy on the first
    # cells, where it must cancel the flux divergence for w ~ rho.  Its
    # `off` and `weights` are views of the l = 0 arrays, which no operator
    # method writes to
    if n == 2:
        cell_int = np.log(mid[1:] / mid[:-1])
    else:
        cell_int = (mid[1:] ** (n - 2) - mid[:-1] ** (n - 2)) / (n - 2)
    ell1 = DiscreteOperator(
        start=1, diag=diag[1:] + (n - 1.0) * area * a_node[1:-1] * cell_int,
        off=radial.off[1:], weights=weights[1:])
    return radial, ell1


def negative_count(op: DiscreteOperator, tol: float = 0.0) -> int:
    """Count of eigenvalues at or below -tol (LAPACK bisection)."""
    diag, off = op.scaled_tridiagonal()
    return len(eigh_tridiagonal(diag, off, select="v",
                                select_range=(-np.inf, -abs(tol)),
                                eigvals_only=True))


def low_spectrum(op: DiscreteOperator, k: int = 6) -> np.ndarray:
    """The k lowest eigenvalues of the sector operator."""
    diag, off = op.scaled_tridiagonal()
    k = min(k, len(diag))
    vals = eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, k - 1), eigvals_only=True)
    return np.asarray(vals)


def ground_pair(op: DiscreteOperator) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and its eigenvector (in node coordinates)."""
    diag, off = op.scaled_tridiagonal()
    vals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    vec = vecs[:, 0] / np.sqrt(op.weights)
    return float(vals[0]), vec


def kernel_residual(op: DiscreteOperator, values: np.ndarray) -> float:
    """|L x|_D / |x|_D for a node-sampled candidate kernel element.

    The last few cells are excluded from the numerator: the Dirichlet
    closure at R_max clips the (exponentially small but nonzero) tail of
    the candidate, and the 1/h^2 flux amplification would otherwise let
    that truncation artifact dominate the norm on fine grids.
    """
    x = op.restrict(values)
    lx = op.apply(x)
    cut = len(lx) - KERNEL_BOUNDARY_SKIP
    num = math.sqrt(float(np.sum(op.weights[:cut] * lx[:cut] ** 2)))
    return num / op.norm(x)


# ---------------------------------------------------------------------------
# M'(omega) by the resolvent formula
# ---------------------------------------------------------------------------

@dataclass
class MprimeResult:
    primal: float          # -2 <u, L+^{-1} u>
    dual: float            # -2 <eta, L_dual^{-1} eta>, eta = u r'(v) = u/h'(u)
    domega_u: np.ndarray = field(repr=False)   # d u / d omega on the nodes

    def agreement(self) -> float:
        scale = max(abs(self.primal), abs(self.dual), 1e-300)
        return abs(self.primal - self.dual) / scale


def coarsen_profile(profile: RadialProfile) -> RadialProfile:
    """The same profile on every other node: the sinh map at half the
    resolution reproduces exactly the even nodes, so this is the natural
    two-level hierarchy for Richardson checks."""
    g = profile.grid
    coarse = RadialGrid(nodes=g.nodes[::2].copy(),
                        jacobian=g.jacobian[::2].copy(),
                        xi=g.xi[::2].copy(), alpha=g.alpha, r_max=g.r_max)
    return RadialProfile(grid=coarse, values=profile.values[::2].copy(),
                         derivative_values=profile.derivative_values[::2].copy(),
                         decay=profile.decay)


def _mprime_primal(u: RadialProfile, params: Params,
                   op: Optional[DiscreteOperator] = None
                   ) -> tuple[float, np.ndarray, float]:
    """Primal M' on u's grid, d_omega u, and the discrete |u|^2; `op` is
    the l = 0 L+ operator of u, assembled here when not given."""
    if op is None:
        op, _ = assemble(u, params, KIND_LPLUS)
    u_r = op.restrict(u.values)
    w = op.solve(-u_r)
    return 2.0 * op.inner(u_r, w), w, op.inner(u_r, u_r)


def _mprime_dual(u: RadialProfile, params: Params) -> float:
    """Dual M' on u's grid."""
    op_d, _ = assemble(u, params, KIND_DUAL)
    # eta = d_omega v of the dual problem's source: u r'(v) = u / h'(u)
    eta = op_d.restrict(u.values / transform.h_prime(u.values, params))
    phi = op_d.solve(-eta)
    return 2.0 * op_d.inner(eta, phi)


def mprime_resolvent(u: RadialProfile, params: Params,
                     op_p0: Optional[DiscreteOperator] = None) -> MprimeResult:
    """M'(omega) from L+ (d_omega u) = -u, cross-checked in the dual variable.

    Solves the banded radial system directly: by non-degeneracy the radial
    sector of L+ is invertible (the translational kernel lives at l = 1).
    The O(h^2) discretization error is removed by Richardson extrapolation
    over the node hierarchy; a third level provides an error estimate (the
    difference of two successive extrapolations), and NearSingular is raised
    when it exceeds MPRIME_NEAR_SINGULAR_TOL of the natural M' scale.  That
    happens when the radial operator approaches a fold or the zero-energy
    dilation resonance deep in the critical regime.  The same error is
    raised when the two variable routes disagree beyond MPRIME_CHECK_TOL.
    `op_p0`, the l = 0 L+ operator of u, saves the finest level's assembly
    when the caller already has it.  M' is defined along omega > 0 only:
    omega = 0 raises InvalidParams.
    """
    if params.omega == 0.0:
        raise InvalidParams("M'(omega) is defined for omega > 0 only")
    primal, w, mass = _mprime_primal(u, params, op_p0)
    dual = _mprime_dual(u, params)
    u2 = coarsen_profile(u)
    p2, _, _ = _mprime_primal(u2, params)
    d2 = _mprime_dual(u2, params)
    # the coarsest level only estimates the primal route's error
    p3, _, _ = _mprime_primal(coarsen_profile(u2), params)
    extrap = (4.0 * primal - p2) / 3.0
    extrap_coarse = (4.0 * p2 - p3) / 3.0
    # M' can legitimately cross zero (folds of the mass curve); the
    # error scale is then set by M/omega rather than |M'| itself
    scale = max(abs(extrap), 0.05 * mass / params.omega)
    est = abs(extrap - extrap_coarse) / scale
    if est > MPRIME_NEAR_SINGULAR_TOL:
        raise NearSingular(
            f"resolvent M' extrapolation error estimate {est:.2e} "
            f"exceeds {MPRIME_NEAR_SINGULAR_TOL:.0e}; refine the grid or "
            f"back away from the fold")
    primal = extrap
    dual = (4.0 * dual - d2) / 3.0
    result = MprimeResult(primal=primal, dual=dual, domega_u=w)
    if abs(primal - dual) / scale > MPRIME_CHECK_TOL:
        raise NearSingular(
            f"resolvent M' routes disagree by {result.agreement():.2e} "
            f"(primal {primal:.6g}, dual {dual:.6g})")
    return result


# ---------------------------------------------------------------------------
# the 3x3 matrix over {d_omega u, u, x.grad u + N/2 u}
# ---------------------------------------------------------------------------

@dataclass
class MatrixL:
    entries: np.ndarray            # closed forms
    entries_form: np.ndarray       # discrete quadratic forms
    det: float
    max_mismatch: float

    def as_dict(self) -> dict:
        return {
            "entries": self.entries.tolist(),
            "entries_quadratic_form": self.entries_form.tolist(),
            "det": self.det,
            "max_mismatch": self.max_mismatch,
        }


def matrix_l_closed_form(params: Params, mprime: float, mass: float,
                         quasi_grad: float, potential: float) -> np.ndarray:
    """Closed-form entries of the restriction of L+ to the span of
    {d_omega u, u, x.grad u + N/2 u}; the paper's identity chain supplies
    every entry from scalar functionals and M'."""
    n, p, delta, omega = params.dim, params.p, params.delta, params.omega
    l11 = -0.5 * mprime
    l12 = -mass
    l13 = 0.0
    l22 = 8.0 * delta * quasi_grad - (p - 1.0) * potential
    l23 = 4.0 * delta * n * quasi_grad \
        + (2.0 + 0.5 * n * (1.0 - p)) * potential - 2.0 * omega * mass
    l33 = 2.0 * delta * n * (1.0 + 0.5 * n) * quasi_grad \
        + 0.5 * n * (p - 1.0) / (p + 1.0) * (2.0 + 0.5 * n * (1.0 - p)) \
        * potential
    return np.array([[l11, l12, l13], [l12, l22, l23], [l13, l23, l33]])


def matrix_l(op: DiscreteOperator, u: RadialProfile, params: Params,
             mprime: float, mass: float, dirichlet: float, quasi_grad: float,
             potential: float, domega_u: np.ndarray) -> MatrixL:
    """Closed-form matrix L with the discrete quadratic forms as a check.

    `op` is the l = 0 L+ operator of u, assembled once per report, and
    d_omega u (on op's nodes) comes from the resolvent solve: it is never
    differenced.  Raises EntryMismatch when any entry's two routes
    disagree beyond MATRIX_L_MISMATCH_TOL relative to the entry scale.
    """
    entries = matrix_l_closed_form(params, mprime, mass, quasi_grad,
                                   potential)
    u_r = op.restrict(u.values)
    scaling = op.restrict(
        u.grid.nodes * u.derivative_values) + 0.5 * params.dim * u_r
    basis = [domega_u, u_r, scaling]
    form = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            form[i, j] = form[j, i] = op.form(basis[i], basis[j])
    scale = max(dirichlet, abs(entries).max())
    mismatch = float(np.max(np.abs(form - entries)) / scale)
    det = float(np.linalg.det(entries))
    result = MatrixL(entries=entries, entries_form=form, det=det,
                     max_mismatch=mismatch)
    if mismatch > MATRIX_L_MISMATCH_TOL:
        raise EntryMismatch(
            f"matrix L routes disagree by {mismatch:.2e} relative")
    return result


# ---------------------------------------------------------------------------
# full spectral report
# ---------------------------------------------------------------------------

@dataclass
class SpectralReport:
    params: Params
    eigs_lplus_radial: np.ndarray
    eigs_lplus_ell1: np.ndarray
    eigs_lminus_radial: np.ndarray
    eigs_lminus_ell1: np.ndarray
    negative_count_radial: int
    negative_count_total: int
    kernel_tol: float
    kernel_residual_lminus: float
    kernel_residual_lplus_ell1: float
    lminus_ground_cosine: float
    mprime: MprimeResult
    matrix: MatrixL

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "dim": self.params.dim,
            "p": self.params.p,
            "delta": self.params.delta,
            "omega": self.params.omega,
            "eigs_lplus_radial": self.eigs_lplus_radial.tolist(),
            "eigs_lplus_ell1": self.eigs_lplus_ell1.tolist(),
            "eigs_lminus_radial": self.eigs_lminus_radial.tolist(),
            "eigs_lminus_ell1": self.eigs_lminus_ell1.tolist(),
            "negative_count_radial": self.negative_count_radial,
            "negative_count_total": self.negative_count_total,
            "kernel_tol": self.kernel_tol,
            "kernel_residual_lminus": self.kernel_residual_lminus,
            "kernel_residual_lplus_ell1": self.kernel_residual_lplus_ell1,
            "lminus_ground_cosine": self.lminus_ground_cosine,
            "mprime_resolvent": self.mprime.primal,
            "mprime_dual": self.mprime.dual,
            "matrix_L": self.matrix.as_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def build_spectral_report(solve_report) -> SpectralReport:
    """All spectral diagnostics for an accepted ground-state solve."""
    u, params = solve_report.u, solve_report.params
    d = solve_report.diagnostics
    op_p0, op_p1 = assemble(u, params, KIND_LPLUS)
    op_m0, op_m1 = assemble(u, params, KIND_LMINUS)

    res_minus = kernel_residual(op_m0, u.values)
    res_plus1 = kernel_residual(op_p1, u.derivative_values)
    # |L x|/|x| bounds the distance from some eigenvalue to 0, so the
    # measured kernel residuals set the eigenvalue resolution scale
    kernel_tol = 10.0 * max(res_plus1, res_minus)
    _, vec0 = ground_pair(op_m0)
    u_r = op_m0.restrict(u.values)
    cosine = abs(op_m0.inner(vec0, u_r)) / (op_m0.norm(vec0) * op_m0.norm(u_r))

    mp = mprime_resolvent(u, params, op_p0)
    if d.mass is None:
        raise InvalidParams("spectral report needs a finite mass")
    mat = matrix_l(op_p0, u, params, mp.primal, d.mass, d.dirichlet,
                   d.quasi_grad, d.potential, mp.domega_u)

    n_rad = negative_count(op_p0, tol=0.0)
    # the translational kernel sits at exactly 0 in l = 1; anything within
    # the discretization scale of 0 is kernel, not a negative eigenvalue
    n_tot = n_rad + negative_count(op_p1, tol=kernel_tol)
    return SpectralReport(
        params=params,
        eigs_lplus_radial=low_spectrum(op_p0),
        eigs_lplus_ell1=low_spectrum(op_p1),
        eigs_lminus_radial=low_spectrum(op_m0),
        eigs_lminus_ell1=low_spectrum(op_m1),
        negative_count_radial=n_rad,
        negative_count_total=n_tot,
        kernel_tol=kernel_tol,
        kernel_residual_lminus=res_minus,
        kernel_residual_lplus_ell1=res_plus1,
        lminus_ground_cosine=float(cosine),
        mprime=mp,
        matrix=mat)
