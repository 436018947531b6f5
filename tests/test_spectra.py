import math
from dataclasses import replace

import numpy as np
import pytest

from qground import transform
from qground.errors import InvalidParams, NearSingular
from qground.params import Params, sphere_area
from qground.shooting import ShootingConfig, solve_ground_state
from qground.spectra import (DiscreteOperator, assemble,
                             build_spectral_report, coarsen_profile,
                             ground_pair, kernel_residual, laplacian_of_u,
                             low_spectrum, matrix_l_closed_form,
                             mprime_resolvent, negative_count)
from qground.transform import h_prime, r

from appendix import GUARANTEED_NEGATIVE, INCONCLUSIVE, mprime_sign_window


def assemble_sector(u, params, ell, kind):
    """Reference: one angular sector per assembly, with the sector's index
    range and the centrifugal term handled inside one pass."""
    grid = u.grid
    nodes = grid.nodes
    n = params.dim
    area = sphere_area(n)
    delta = params.delta
    uu, up = u.values, u.derivative_values
    if kind == "L+":
        lap_u = laplacian_of_u(u, params)
        q = -delta * (4.0 * uu * lap_u + 2.0 * up ** 2) \
            - params.p * np.abs(uu) ** (params.p - 1.0) + params.omega
        coeff_profile = u
    elif kind == "L-":
        lap_u = laplacian_of_u(u, params)
        q = -delta * (2.0 * uu * lap_u + 2.0 * up ** 2) \
            - np.abs(uu) ** (params.p - 1.0) + params.omega
        coeff_profile = None
    else:
        q = -transform.f_omega_prime_u(uu, params)
        coeff_profile = None
    mid = grid.midpoints()
    if coeff_profile is None:
        a_face = np.ones_like(mid)
        a_node = np.ones_like(nodes)
    else:
        u_face = coeff_profile(mid)
        a_face = 1.0 + 2.0 * delta * u_face ** 2
        a_node = 1.0 + 2.0 * delta * uu ** 2
    flux = area * a_face * mid ** (n - 1) / np.diff(nodes)
    faces_n = mid ** n
    start = 0 if ell == 0 else 1
    idx = np.arange(start, len(nodes) - 1)
    inner_face = np.where(idx >= 1, faces_n[np.maximum(idx - 1, 0)], 0.0)
    weights = area * (faces_n[idx] - inner_face) / n
    diag = q[idx] * weights + flux[idx]
    diag += np.where(idx >= 1, flux[np.maximum(idx - 1, 0)], 0.0)
    if ell > 0:
        lo_face = mid[np.maximum(idx - 1, 0)]
        hi_face = mid[idx]
        if n == 2:
            cell_int = np.log(hi_face / lo_face)
        else:
            cell_int = (hi_face ** (n - 2) - lo_face ** (n - 2)) / (n - 2)
        diag += ell * (ell + n - 2.0) * area * a_node[idx] * cell_int
    off = -flux[idx[:-1]]
    return DiscreteOperator(start=start, diag=diag, off=off, weights=weights)


def matrix_l_critical_form(params: Params, mprime: float, mass: float,
                           dirichlet: float, beta: float) -> np.ndarray:
    """Critical-exponent variant of the closed-form entries of L, written
    in terms of T, beta and omega M only."""
    n, omega = params.dim, params.omega
    t, m = dirichlet, mass
    wm = omega * m / t
    l22 = 4.0 / (n - 2) * t * (2.0 * wm - beta)
    l23 = 2.0 / (n - 2) * t * ((n + 2.0) * wm - 2.0 * beta)
    l33 = 1.0 / (n - 2) * t * (n * (n + 2.0) * wm - 4.0 * beta)
    return np.array([[-0.5 * mprime, -m, 0.0], [-m, l22, l23], [0.0, l23, l33]])


class TestAssembly:
    @pytest.mark.parametrize("fixture", ["townes", "nls33", "crit3",
                                         "super53"])
    def test_sectors_match_per_sector_reference(self, fixture, request):
        # one assembly gives, bit for bit, what a separate assembly per
        # sector gives: the l = 1 sector is the l = 0 one without node 0,
        # plus the centrifugal diagonal (N = 2 takes its log branch)
        rep = request.getfixturevalue(fixture)
        for kind in ("L+", "L-", "dual"):
            for ell, op in enumerate(assemble(rep.u, rep.params, kind)):
                ref = assemble_sector(rep.u, rep.params, ell, kind)
                assert op.start == ref.start == ell
                for name in ("diag", "off", "weights"):
                    got, want = getattr(op, name), getattr(ref, name)
                    assert got.dtype == want.dtype, (kind, ell, name)
                    assert np.array_equal(got, want), (kind, ell, name)

    def test_delta_zero_reduction(self, nls33):
        # at delta = 0 both L+ and the dual operator are -Lap - pQ^{p-1} + w
        op_p, _ = assemble(nls33.u, nls33.params, kind="L+")
        op_d, _ = assemble(nls33.u, nls33.params, kind="dual")
        assert np.allclose(op_p.diag, op_d.diag, rtol=1e-12)
        assert np.allclose(op_p.off, op_d.off, rtol=1e-12)

    def test_ell_sector_shift(self, nls33):
        # the l = 1 centrifugal term adds (N-1)/rho^2 on cell average
        op0, op1 = assemble(nls33.u, nls33.params, kind="L-")
        i = 200   # a mid-grid node, same index offset by start
        rho = nls33.u.grid.nodes[op1.start + i]
        added = (op1.diag[i] - op0.diag[i + 1]) / op1.weights[i]
        assert added == pytest.approx(2.0 / rho ** 2, rel=1e-3)

    def test_first_order_form_consistency(self, crit3):
        # divergence form applied to a smooth test function matches the
        # first-order form of L+ computed analytically, to O(h^2)
        params, u = crit3.params, crit3.u
        rho = u.grid.nodes
        w = np.exp(-0.5 * rho ** 2)
        wp = -rho * w
        wpp = (rho ** 2 - 1.0) * w
        delta = params.delta
        uu, up = u.values, u.derivative_values
        from qground.spectra import laplacian_of_u

        lap_u = laplacian_of_u(u, params)
        lap_w = wpp + (params.dim - 1) / np.maximum(rho, 1e-30) * wp
        lap_w[0] = params.dim * -1.0   # limit of Lap at 0 for this w
        first_order = -(1 + 2 * delta * uu ** 2) * lap_w \
            - 4 * delta * uu * up * wp \
            - delta * (4 * uu * lap_u + 2 * up ** 2) * w \
            - params.p * uu ** (params.p - 1) * w + params.omega * w
        op, _ = assemble(u, params, kind="L+")
        applied = op.apply(op.restrict(w))
        interior = slice(1, 600)
        scale = np.max(np.abs(first_order))
        err = np.max(np.abs(applied[interior]
                            - op.restrict(first_order)[interior]))
        assert err < 5e-3 * scale

    def test_conjugation_identity(self, crit3):
        # L+ w = (-Lap - f'(v)) (w / r'(v)) / r'(v) on smooth test functions
        params = crit3.params
        rp = 1.0 / h_prime(r(crit3.v.values, params), params)
        rng = np.random.default_rng(7)
        op_p, _ = assemble(crit3.u, params, kind="L+")
        op_d, _ = assemble(crit3.u, params, kind="dual")
        rho = crit3.u.grid.nodes
        worst = 0.0
        for _ in range(20):
            width = rng.uniform(0.5, 3.0)
            center = rng.uniform(0.0, 4.0)
            w = np.exp(-((rho - center) / width) ** 2) \
                + 0.3 * np.exp(-(rho / (2 * width)) ** 2)
            eta = w / rp
            lhs = op_p.apply(op_p.restrict(w))
            rhs = op_d.apply(op_d.restrict(eta)) / op_p.restrict(rp)
            interior = slice(1, 700)
            scale = np.max(np.abs(lhs[interior]))
            worst = max(worst, np.max(np.abs((lhs - rhs)[interior])) / scale)
        assert worst < 2e-2

    def test_conjugation_identity_refines(self):
        # the conjugation mismatch is discretization error: O(h^2)
        errs = []
        for res in (512, 1024):
            rep = solve_ground_state(Params(3, 5, 1.0, 2.0 ** -6),
                                     ShootingConfig(resolution=res))
            rp = 1.0 / h_prime(r(rep.v.values, rep.params), rep.params)
            rho = rep.u.grid.nodes
            w = np.exp(-0.7 * rho ** 2) * (1.0 + 0.2 * rho)
            op_p, _ = assemble(rep.u, rep.params, kind="L+")
            op_d, _ = assemble(rep.u, rep.params, kind="dual")
            lhs = op_p.apply(op_p.restrict(w))
            rhs = op_d.apply(op_d.restrict(w / rp)) / op_p.restrict(rp)
            # skip the first few cells: their pointwise consistency is
            # formally first order (with negligible cell volume), while the
            # identity is second order everywhere else
            interior = slice(8 * res // 512, res // 2)
            errs.append(np.max(np.abs((lhs - rhs)[interior])))
        assert errs[0] / errs[1] >= 3.0


class TestSpectrum:
    def test_negative_count_and_kernels(self, nls33):
        report = build_spectral_report(nls33)
        assert report.negative_count_radial == 1
        assert report.negative_count_total == 1
        assert report.lminus_ground_cosine > 0.9999
        # lowest L- eigenvalue is the kernel, within the residual scale
        assert abs(report.eigs_lminus_radial[0]) < report.kernel_tol
        assert abs(report.eigs_lplus_ell1[0]) < report.kernel_tol

    def test_kernel_residual_order(self):
        errs = {}
        for res in (1024, 2048):
            rep = solve_ground_state(Params(3, 3, 0.0, 1.0),
                                     ShootingConfig(resolution=res))
            op_m, _ = assemble(rep.u, rep.params, kind="L-")
            _, op_p1 = assemble(rep.u, rep.params, kind="L+")
            errs[res] = (kernel_residual(op_m, rep.u.values),
                         kernel_residual(op_p1, rep.u.derivative_values))
        for i in range(2):
            order = math.log2(errs[1024][i] / errs[2048][i])
            assert order >= 1.8

    def test_eigenvalue_richardson_stability(self):
        vals = []
        for res in (1024, 2048):
            rep = solve_ground_state(Params(3, 5, 1.0, 2.0 ** -6),
                                     ShootingConfig(resolution=res))
            op, _ = assemble(rep.u, rep.params, kind="L+")
            vals.append(low_spectrum(op, 1)[0])
        assert abs(vals[1] - vals[0]) / abs(vals[1]) < 1e-4

    def test_ground_pair_matches_low_spectrum(self, crit3):
        op, _ = assemble(crit3.u, crit3.params, kind="L-")
        lam, vec = ground_pair(op)
        assert lam == pytest.approx(low_spectrum(op, 1)[0], rel=1e-12)
        assert len(vec) == len(op.diag)

    def test_negative_count_tolerance(self, nls33):
        op, _ = assemble(nls33.u, nls33.params, kind="L+")
        assert negative_count(op) == 1
        # a huge tolerance hides the negative eigenvalue
        assert negative_count(op, tol=1e3) == 0

    def test_negative_count_matches_dense_eigenvalues(self, nls33):
        # a resolution-128 operator, shifted down so that several
        # eigenvalues are negative
        u = coarsen_profile(coarsen_profile(coarsen_profile(nls33.u)))
        assert u.grid.resolution == 128
        op, _ = assemble(u, nls33.params, kind="L+")
        op = replace(op, diag=op.diag - 5.0 * op.weights)
        diag, off = op.scaled_tridiagonal()
        dense = np.linalg.eigvalsh(
            np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        between = -0.5 * (dense[1] + dense[2])
        below = 2.0 * abs(dense[0])
        counts = [negative_count(op, tol) for tol in (0.0, between, below)]
        assert counts == [np.count_nonzero(dense < -tol)
                          for tol in (0.0, between, below)]
        assert counts[0] > counts[1] == 2 and counts[2] == 0


class TestMprime:
    def test_zero_mass_is_invalid(self, zero_mass53):
        # M' is defined along omega > 0; at omega = 0 its error scale M/omega
        # has no meaning and neither guard could fire
        with pytest.raises(InvalidParams):
            mprime_resolvent(zero_mass53.u, zero_mass53.params)

    def test_nls_closed_form(self, nls33):
        # M_NLS = omega^{-1/2} |Q|_2^2, so M'(1) = -M(1)/2
        mp = mprime_resolvent(nls33.u, nls33.params)
        expected = -0.5 * nls33.diagnostics.mass
        assert mp.primal == pytest.approx(expected, rel=1e-3)
        assert mp.dual == pytest.approx(mp.primal, rel=1e-12)  # same operator

    def test_nls_closed_form_other_frequency(self):
        # the grid scales with 1/sqrt(omega) above omega = 1, so omega = 4
        # behaves like omega = 1: the error estimator asks for refinement
        # at 512 and is satisfied at 1024
        with pytest.raises(NearSingular):
            rep = solve_ground_state(Params(3, 3, 0.0, 4.0),
                                     ShootingConfig(resolution=512))
            mprime_resolvent(rep.u, rep.params)
        rep = solve_ground_state(Params(3, 3, 0.0, 4.0))
        mp = mprime_resolvent(rep.u, rep.params)
        expected = -0.5 * rep.diagnostics.mass / 4.0
        assert mp.primal == pytest.approx(expected, rel=1e-3)

    def test_mass_critical_derivative_vanishes(self, townes):
        mp = mprime_resolvent(townes.u, townes.params)
        assert abs(mp.primal) < 1e-3 * townes.diagnostics.mass

    def test_mass_subcritical_increasing(self):
        rep = solve_ground_state(Params(3, 2, 1.0, 2.0 ** -8))
        mp = mprime_resolvent(rep.u, rep.params)
        assert mp.primal > 0

    def test_mass_critical_quasilinear_limit(self):
        # at p = 1 + 4/N the quasilinear term sets the derivative scale:
        # M'(omega) -> (N(N+2)/8) delta |grad(Q^2)|^2 omega^{N/2-1}, the
        # coefficient the two-term mass expansion forces (at N = 2 that is
        # exactly delta |grad(Q^2)|^2, with |grad(Q^2)|^2 = 63.5712 for the
        # Townes profile per tests/oracle.py)
        rep = solve_ground_state(Params(2, 3, 1.0, 2.0 ** -12))
        mp = mprime_resolvent(rep.u, rep.params)
        assert mp.primal == pytest.approx(63.57117132385548, rel=0.005)

    def test_dual_route_agreement(self, crit3):
        mp = mprime_resolvent(crit3.u, crit3.params)
        assert mp.agreement() < 5e-3


class TestMatrixL:
    def test_structure_and_sign(self, super53):
        report = build_spectral_report(super53)
        mat = report.matrix
        entries = mat.entries
        assert entries[0, 2] == 0.0
        assert mat.det < 0
        assert mat.max_mismatch < 0.01
        # discrete L13 quadratic form also vanishes to quadrature accuracy
        scale = super53.diagnostics.dirichlet
        assert abs(mat.entries_form[0, 2]) < 1e-4 * scale

    def test_critical_variant_consistency(self, crit3):
        # at critical p the generic and beta-form entries coincide through
        # the integral identities
        d = crit3.diagnostics
        mp = mprime_resolvent(crit3.u, crit3.params)
        generic = matrix_l_closed_form(crit3.params, mp.primal, d.mass,
                                       d.quasi_grad, d.potential)
        special = matrix_l_critical_form(crit3.params, mp.primal, d.mass,
                                         d.dirichlet, d.beta)
        assert np.allclose(generic, special, rtol=1e-5,
                           atol=1e-7 * d.dirichlet)

    def test_critical_product_identity(self, crit3):
        # L22 L33 - L23^2 = 4/(N-2) w M T [-2 beta - (N-2)] < 0
        d = crit3.diagnostics
        m = matrix_l_critical_form(crit3.params, 0.0, d.mass, d.dirichlet,
                                   d.beta)
        lhs = m[1, 1] * m[2, 2] - m[1, 2] ** 2
        n = crit3.params.dim
        rhs = 4.0 / (n - 2) * crit3.params.omega * d.mass * d.dirichlet \
            * (-2.0 * d.beta - (n - 2))
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert lhs < 0

    def test_det_negative_critical(self, crit3):
        report = build_spectral_report(crit3)
        assert report.matrix.det < 0


class TestSignWindow:
    def test_low_dimensions_always_guaranteed(self):
        assert mprime_sign_window(3, 7) == GUARANTEED_NEGATIVE
        assert mprime_sign_window(4, 4) == GUARANTEED_NEGATIVE
        assert mprime_sign_window(5, 3) == GUARANTEED_NEGATIVE

    def test_dimension_seven_windows(self):
        assert mprime_sign_window(7, 4.0) == GUARANTEED_NEGATIVE
        assert mprime_sign_window(7, 2.5) == INCONCLUSIVE

    def test_blowup_range_always_guaranteed(self):
        # p >= 3 + 4/N sits outside the inconclusive window for every N
        for dim in (6, 7, 8, 10, 14):
            from fractions import Fraction

            p = 3 + Fraction(4, dim)
            assert mprime_sign_window(dim, p) == GUARANTEED_NEGATIVE

    def test_needs_supercritical(self):
        with pytest.raises(InvalidParams):
            mprime_sign_window(3, 2)


class TestReportAssembly:
    def test_radial_lplus_assembled_once(self, crit3, monkeypatch):
        # one assembly per operator, and the report's L+ serves the finest
        # resolvent level too: six assemblies (L+ and L- with both sectors,
        # the dual at the finest level, both kinds at the middle level and
        # L+ at the coarsest) and the same M' as a resolvent on its own
        from qground import spectra

        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return assemble(*args, **kwargs)

        monkeypatch.setattr(spectra, "assemble", counted)
        report = build_spectral_report(crit3)
        assert len(calls) == 6
        monkeypatch.undo()
        alone = mprime_resolvent(crit3.u, crit3.params)
        assert report.mprime.primal == alone.primal
        assert report.mprime.dual == alone.dual
        assert np.array_equal(report.mprime.domega_u, alone.domega_u)


class TestReportSerialization:
    def test_json_fields(self, crit3):
        import json

        report = build_spectral_report(crit3)
        d = json.loads(report.to_json())
        assert d["schema"] == 1
        assert d["negative_count_radial"] == 1
        assert len(d["eigs_lplus_radial"]) == 6
        assert d["matrix_L"]["det"] < 0
