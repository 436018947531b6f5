"""Acceptance suite: every criterion at its stated tolerance.

Branches are computed once per session at the configurations worked out
for each regime (the critical ladders go deep enough for the asymptotic
windows; fitted-exponent windows and the near-fold exclusions follow the
module defaults).  Each criterion prints one summary line.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qground.asymptotics import (bubble_distance, critical_scaling_report,
                                 energy_limit_check, fit_power_law,
                                 sorted_points, subcritical_expansion_check,
                                 supercritical_limit_check)
from qground.branch import (SweepPlan, energy_identity_check,
                            geometric_ladder, run_sweep)
from qground.params import Params, classify
from qground.shooting import ShootingConfig, solve_ground_state
from qground.spectra import (assemble, kernel_residual, mprime_resolvent,
                             negative_count)

from appendix import (GUARANTEED_NEGATIVE, INCONCLUSIVE,
                      critical_key_residual, gn_ratio, moser_bound_check,
                      mprime_agreement, mprime_sign_window,
                      radial_decay_check)


def _report(num, name, elapsed, detail):
    print(f"[acceptance] criterion {num} ({name}): PASS "
          f"({detail}; {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# session-scoped branches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def sub_branch():
    plan = SweepPlan(dim=3, p=2, delta=1.0,
                     omegas=geometric_ladder(2 ** -6, 2 ** -14, 0.5), jobs=2)
    return plan, run_sweep(plan)


@pytest.fixture(scope="session")
def crit3_branch():
    plan = SweepPlan(dim=3, p=5, delta=1.0, resolution=2048,
                     omegas=geometric_ladder(2 ** -4, 2 ** -26, 0.5), jobs=2)
    return plan, run_sweep(plan)


@pytest.fixture(scope="session")
def crit4_branch():
    plan = SweepPlan(dim=4, p=3, delta=1.0, resolution=2048,
                     omegas=geometric_ladder(2 ** -4, 2 ** -28, 0.5), jobs=2)
    return plan, run_sweep(plan)


@pytest.fixture(scope="session")
def crit5_branch():
    plan = SweepPlan(dim=5, p=Fraction(7, 3), delta=1.0, resolution=2048,
                     omegas=geometric_ladder(2 ** -4, 2 ** -24, 0.5), jobs=2)
    return plan, run_sweep(plan)


@pytest.fixture(scope="session")
def super5_branch():
    plan = SweepPlan(dim=5, p=3, delta=1.0, with_spectra=True,
                     omegas=geometric_ladder(2 ** -4, 2 ** -16, 0.5), jobs=2)
    return plan, run_sweep(plan)


@pytest.fixture(scope="session")
def super37_branch():
    plan = SweepPlan(dim=3, p=7, delta=1.0, with_spectra=True,
                     omegas=(1e-2, 1e-3, 1e-4), jobs=2)
    return plan, run_sweep(plan)


@pytest.fixture(scope="session")
def u0_53():
    return solve_ground_state(Params(5, 3, 1.0, 0.0))


# ---------------------------------------------------------------------------
# 1. identity closure on a 30-point sample spanning all regimes
# ---------------------------------------------------------------------------

IDENTITY_SAMPLE = [
    # N = 2 (always subcritical; includes the NLS oracle and strong coupling)
    (2, 2, 1.0, 1.0), (2, 3, 1.0, 0.5), (2, 3, 0.0, 1.0), (2, 6, 1.0, 1.0),
    (2, 3, 2.0, 2.0), (2, 5, 0.5, 0.25),
    # N = 3 subcritical / critical / supercritical
    (3, 2, 1.0, 1.0), (3, 2, 1.0, 0.25), (3, 2.5, 0.5, 1.0),
    (3, Fraction(7, 3), 1.0, 0.5), (3, 3, 0.0, 1.0),
    (3, 5, 1.0, 2 ** -4), (3, 5, 1.0, 2 ** -6), (3, 5, 0.5, 2 ** -5),
    (3, 7, 1.0, 1e-2), (3, 6, 1.0, 0.1),
    # N = 4
    (4, 2, 1.0, 1.0), (4, 3, 1.0, 2 ** -4), (4, 3, 1.0, 2 ** -6),
    (4, 4, 1.0, 0.05),
    # N = 5
    (5, 1.5, 1.0, 1.0), (5, Fraction(7, 3), 1.0, 2 ** -5),
    (5, 3, 1.0, 0.05), (5, 3, 1.0, 0.01), (5, 4, 1.0, 0.05),
    # N = 6, 7
    (6, 2, 1.0, 2 ** -5), (6, Fraction(7, 3), 1.0, 0.05),
    (7, 1.2, 1.0, 1.0), (7, 2, 1.0, 0.5), (7, 4, 1.0, 0.05),
]


def test_criterion_1_identity_closure():
    t0 = time.time()
    assert len(IDENTITY_SAMPLE) == 30
    regimes = set()
    worst = 0.0
    worst_key = 0.0
    for dim, p, delta, omega in IDENTITY_SAMPLE:
        params = Params(dim, p, delta, omega)
        regime = classify(params)
        regimes.add(regime.tag)
        rep = solve_ground_state(params, ShootingConfig(resolution=2048))
        assert rep.pohozaev_residual < 1e-6, (dim, p, delta, omega)
        assert rep.nehari_residual < 1e-6, (dim, p, delta, omega)
        worst = max(worst, rep.pohozaev_residual, rep.nehari_residual)
        if regime.is_critical and delta > 0:
            key = critical_key_residual(rep.diagnostics, params)
            assert key < 1e-6, (dim, p, delta, omega)
            worst_key = max(worst_key, key)
    assert regimes == {"subcritical", "critical", "supercritical"}
    _report(1, "identity closure", time.time() - t0,
            f"30 points, worst identity {worst:.1e}, "
            f"worst key estimate {worst_key:.1e}")


# ---------------------------------------------------------------------------
# 2. exact-scaling oracle at delta = 0
# ---------------------------------------------------------------------------

def test_criterion_2_scaling_oracle():
    t0 = time.time()
    worst_sup = worst_mass = 0.0
    for dim in (2, 3):
        for p in (2, 3):
            q_rep = solve_ground_state(Params(dim, p, 0.0, 1.0),
                                       ShootingConfig(resolution=2048))
            q_mass = q_rep.diagnostics.mass
            for omega in (0.25, 1.0, 4.0):
                rep = solve_ground_state(Params(dim, p, 0.0, omega),
                                         ShootingConfig(resolution=2048))
                s = math.sqrt(omega)
                amp = omega ** (1.0 / (p - 1))
                x = rep.u.grid.nodes
                x = x[s * x <= q_rep.u.grid.r_max]
                predicted = amp * q_rep.u(s * x)
                sup = np.max(np.abs(rep.u.values[: len(x)] - predicted))
                worst_sup = max(worst_sup, sup)
                assert sup < 1e-6, (dim, p, omega)
                expo = (4.0 + dim - dim * p) / (2.0 * (p - 1.0))
                mass_err = abs(rep.diagnostics.mass - omega ** expo * q_mass) \
                    / (omega ** expo * q_mass)
                worst_mass = max(worst_mass, mass_err)
                assert mass_err < 1e-6, (dim, p, omega)
    _report(2, "exact-scaling oracle", time.time() - t0,
            f"sup error {worst_sup:.1e}, mass error {worst_mass:.1e}")


# ---------------------------------------------------------------------------
# 3. spectral structure at 10 sampled parameter points
# ---------------------------------------------------------------------------

SPECTRAL_SAMPLE = [
    (2, 3, 1.0, 0.5), (3, 2, 1.0, 1.0), (3, 3, 0.5, 0.25),
    (3, 5, 1.0, 2 ** -6), (3, 7, 1.0, 1e-2), (4, 3, 1.0, 2 ** -5),
    (4, 2, 0.5, 1.0), (5, 3, 1.0, 0.05), (5, Fraction(7, 3), 1.0, 2 ** -6),
    (6, Fraction(7, 3), 1.0, 0.1),
]


def test_criterion_3_spectral_structure():
    t0 = time.time()
    worst_order = np.inf
    for dim, p, delta, omega in SPECTRAL_SAMPLE:
        params = Params(dim, p, delta, omega)
        residuals = {}
        for res in (512, 1024, 2048):
            rep = solve_ground_state(params, ShootingConfig(resolution=res))
            op_m, _ = assemble(rep.u, params, kind="L-")
            residuals[res] = kernel_residual(op_m, rep.u.values)
            if res == 1024:
                op_p, op_p1 = assemble(rep.u, params, kind="L+")
                assert negative_count(op_p) == 1, (dim, p, delta, omega)
                tol = 10.0 * kernel_residual(op_p1, rep.u.derivative_values)
                assert negative_count(op_p1, tol=tol) == 0, \
                    (dim, p, delta, omega)
        o1 = math.log2(residuals[512] / residuals[1024])
        o2 = math.log2(residuals[1024] / residuals[2048])
        worst_order = min(worst_order, o1, o2)
        assert o1 >= 1.8 and o2 >= 1.8, (dim, p, delta, omega, o1, o2)
    _report(3, "spectral structure", time.time() - t0,
            f"10 samples, worst kernel-residual order {worst_order:.2f}")


# ---------------------------------------------------------------------------
# 4. M' cross-validation: resolvent vs finite differences
# ---------------------------------------------------------------------------

def _agreements(points, lo=0.0, hi=np.inf):
    out = []
    for q in sorted_points(points):
        if lo <= q.omega <= hi:
            ag = mprime_agreement(q)
            if ag is not None:
                out.append(ag)
    return out


def test_criterion_4_mprime_cross_validation(sub_branch, crit3_branch,
                                             super5_branch):
    t0 = time.time()
    _, sub = sub_branch
    _, crit = crit3_branch
    _, sup = super5_branch
    agreements = _agreements(sub.points())
    # critical branch on its canonical window; supercritical away from the
    # genuine fold of the mass curve near omega = 2^-4.5
    agreements += _agreements(crit.points(), lo=2 ** -14 * 0.99)
    agreements += _agreements(sup.points(), hi=2 ** -6 * 1.01)
    assert len(agreements) >= 20
    worst = max(agreements)
    assert worst < 0.01
    _report(4, "M' cross-validation", time.time() - t0,
            f"{len(agreements)} interior points, worst agreement {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. subcritical expansion and the sign of M'
# ---------------------------------------------------------------------------

SIGN_SAMPLE = [
    # p <= 1 + 4/N: increasing mass near 0
    (2, 2, +1), (2, 3, +1), (3, 2, +1), (4, 2, +1),
    # p > 1 + 4/N: decreasing
    (3, 3, -1), (2, 5, -1),
]


def test_criterion_5_subcritical_expansion(sub_branch):
    t0 = time.time()
    plan, store = sub_branch
    q_rep = solve_ground_state(Params(3, 2, 0.0, 1.0))
    result = subcritical_expansion_check(store.points(), q_rep,
                                         plan.params_at(2 ** -6))
    assert result["correction_rel_err"] < 0.05
    assert result["intercept_rel_err"] < 0.01
    for dim, p, sign in SIGN_SAMPLE:
        rep = solve_ground_state(Params(dim, p, 1.0, 2 ** -8))
        mp = mprime_resolvent(rep.u, rep.params)
        assert math.copysign(1, mp.primal) == sign, (dim, p)
    _report(5, "subcritical expansion", time.time() - t0,
            f"correction coefficient within "
            f"{result['correction_rel_err']:.2%}, 6/6 M' signs")


# ---------------------------------------------------------------------------
# 6. critical scaling laws
# ---------------------------------------------------------------------------

def _critical_report(plan, store):
    pts = sorted_points(store.points())
    reports = {r.point.omega: r.report for r in store.records()}
    last_u = reports[pts[0].omega].u
    params = plan.params_at(pts[0].omega)
    return critical_scaling_report(store.points(), params,
                                   last_profile=last_u), pts


def test_criterion_6_critical_scaling(crit3_branch, crit4_branch,
                                      crit5_branch):
    t0 = time.time()
    details = []

    plan3, store3 = crit3_branch
    rep3, pts3 = _critical_report(plan3, store3)
    assert abs(rep3["mass_fit"].exponent - (-0.75)) < 0.04
    assert abs(rep3["lambda_fit"].exponent - (-0.25)) < 0.02
    assert abs(rep3["gap_fit"].exponent - 0.25) < 0.05
    assert rep3["bubble_distance"] < 1e-2
    assert rep3["mprime_all_negative"]
    assert rep3["mprime_magnitude_increasing"]
    assert rep3["gap_nonnegative"]
    assert rep3["lambda_sqrt_omega_decreasing"]
    details.append(f"N=3 slopes ({rep3['mass_fit'].exponent:.3f}, "
                   f"{rep3['lambda_fit'].exponent:.3f}, "
                   f"{rep3['gap_fit'].exponent:.3f})")

    # fit stability: dropping the largest-omega third of the fit window
    w = np.array([q.omega for q in pts3[:8]])
    m = np.array([q.mass for q in pts3[:8]])
    full = fit_power_law(w, m).exponent
    trimmed = fit_power_law(w[:6], m[:6]).exponent
    assert abs(trimmed - full) / abs(full) < 0.02

    plan4, store4 = crit4_branch
    rep4, pts4 = _critical_report(plan4, store4)
    assert rep4["mass_log_preferred"]
    assert rep4["lambda_log_preferred"]
    assert rep4["bubble_distance"] < 1e-2
    assert rep4["mprime_all_negative"]
    assert rep4["mprime_magnitude_increasing"]
    details.append("N=4 log models preferred by AICc")

    plan5, store5 = crit5_branch
    rep5, pts5 = _critical_report(plan5, store5)
    assert abs(rep5["mass_fit"].exponent - (-0.40)) < 0.02
    assert abs(rep5["lambda_fit"].exponent - (-0.20)) < 0.02
    assert rep5["bubble_distance"] < 1e-2
    assert rep5["mprime_all_negative"]
    assert rep5["mprime_magnitude_increasing"]
    details.append(f"N=5 slopes ({rep5['mass_fit'].exponent:.3f}, "
                   f"{rep5['lambda_fit'].exponent:.3f})")

    _report(6, "critical scaling", time.time() - t0, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. supercritical limits
# ---------------------------------------------------------------------------

def test_criterion_7_supercritical_limits(super5_branch, super37_branch,
                                          u0_53):
    t0 = time.time()
    plan5, store5 = super5_branch
    sup = supercritical_limit_check(store5.points(), u0_53,
                                    plan5.params_at(2 ** -16))
    assert sup["mass_limit_rel_err"] < 0.02
    assert sup["omega_mass_to_zero_monotone"]
    assert sup["mprime_all_negative"]
    assert sup["mprime_magnitude_increasing"]

    plan37, store37 = super37_branch
    pts = sorted_points(store37.points())
    growth = pts[0].mass / pts[-1].mass
    assert growth > 3.0

    dets = [r.spectral.matrix.det for r in list(store5.records())
            + list(store37.records()) if r.spectral is not None]
    assert len(dets) >= 15
    assert all(d < 0 for d in dets)

    assert mprime_sign_window(7, 4.0) == GUARANTEED_NEGATIVE
    assert mprime_sign_window(7, 2.5) == INCONCLUSIVE
    _report(7, "supercritical limits", time.time() - t0,
            f"mass limit within {sup['mass_limit_rel_err']:.2%}, "
            f"M growth x{growth:.1f}, det(L) < 0 at {len(dets)} points")


# ---------------------------------------------------------------------------
# 8. energy corollary
# ---------------------------------------------------------------------------

def test_criterion_8_energy_corollary(sub_branch, crit3_branch, super5_branch,
                                      u0_53):
    t0 = time.time()
    worst = 0.0
    branch_samples = [
        (Params(3, 2, 1.0, 0.0), (2 ** -7, 2 ** -10, 2 ** -13)),
        (Params(3, 5, 1.0, 0.0), (2 ** -6, 2 ** -10, 2 ** -14)),
        (Params(5, 3, 1.0, 0.0), (2 ** -6, 2 ** -9, 2 ** -12)),
    ]
    for params, omegas in branch_samples:
        for omega in omegas:
            res = energy_identity_check(params.with_omega(omega))
            worst = max(worst, res)
            assert res < 0.01, (params.dim, params.p, omega)

    plan5, store5 = super5_branch
    energy = energy_limit_check(store5.points(), plan5.params_at(2 ** -16),
                                u0_report=u0_53)
    assert energy["energy_limit_rel_err"] < 0.03
    _report(8, "energy corollary", time.time() - t0,
            f"identity within {worst:.1e} at 9 sampled points, "
            f"supercritical limit within "
            f"{energy['energy_limit_rel_err']:.2%}")


# ---------------------------------------------------------------------------
# 9. appendix property suite
# ---------------------------------------------------------------------------

def test_criterion_9_appendix_properties(crit3_branch, sub_branch,
                                         super5_branch):
    t0 = time.time()
    _, crit = crit3_branch
    _, sub = sub_branch
    _, sup = super5_branch
    reports = crit.reports() + sub.reports() + sup.reports()
    assert len(reports) >= 40
    for rep in reports:
        dim = rep.params.dim
        assert radial_decay_check(rep.u, 2.0, dim), rep.params
        assert radial_decay_check(rep.u, 2.0 * dim / (dim - 2), dim), rep.params

    # Moser-type uniform bound on the dual-problem sup norms down the ladder
    heights = [(r.params.omega, r.shooting_height) for r in crit.reports()]
    assert moser_bound_check(heights)

    ratios = [gn_ratio(r.u, 9.0, 6.0, 3) for r in crit.reports()]
    assert all(np.isfinite(c) and c > 0 for c in ratios)
    assert max(ratios) / min(ratios) < 3.0
    _report(9, "appendix properties", time.time() - t0,
            f"{len(reports)} profiles, GN constant spread "
            f"x{max(ratios) / min(ratios):.2f}")


# ---------------------------------------------------------------------------
# the parallel ladder schedule behind the session branches
# ---------------------------------------------------------------------------

def test_parallel_chunks_walk_warm(crit3_branch):
    # each worker walks a contiguous chunk warm: seeding every point from
    # the ladder's first point alone took 595 root-find integrations here
    plan, store = crit3_branch
    assert plan.jobs == 2
    iterations = sum(r.report.iterations for r in store.records())
    assert iterations < 595
    assert run_sweep(plan).to_csv_string() == store.to_csv_string()
