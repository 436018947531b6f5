"""Command-line interface: solve, sweep, spectrum, verify and fit.

Exit codes: 0 success, 1 failed verification gates, 2 invalid flags or
parameters.  The output root defaults to $QG_OUT_DIR (or ./runs).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import asymptotics, branch, spectra
from .errors import InvalidParams, QGroundError
from .integrals import sobolev_constant
from .params import Params, classify
from .shooting import ShootingConfig, solve_ground_state
from .branch import BranchStore, SweepPlan, default_out_dir, geometric_ladder


def _parse_p(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse exponent {text!r}") from exc


def _parse_ladder(text: str) -> tuple[float, ...]:
    """start:stop:ratio, e.g. 0.0625:6.2e-5:0.5."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ladder must be start:stop:ratio")
    try:
        start, stop, ratio = (float(x) for x in parts)
        return geometric_ladder(start, stop, ratio)
    except (ValueError, InvalidParams) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_param_flags(sub, omega: bool = True):
    sub.add_argument("--dim", type=int, required=True, help="space dimension N")
    sub.add_argument("--p", type=_parse_p, required=True,
                     help="exponent p (fractions like 7/3 are exact)")
    sub.add_argument("--delta", type=float, default=1.0,
                     help="quasilinear coupling (0 = plain NLS)")
    if omega:
        sub.add_argument("--omega", type=float, required=True, help="frequency")
    sub.add_argument("--resolution", type=int, default=1024)
    sub.add_argument("--out", type=Path, default=None,
                     help="output root (default $QG_OUT_DIR or ./runs)")
    sub.add_argument("--json", action="store_true",
                     help="print the JSON report to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qground",
        description="Ground states and small-frequency asymptotics of a "
                    "quasilinear Schrodinger equation")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="compute one ground state")
    _add_param_flags(solve)

    sweep = subs.add_parser("sweep", help="run an omega ladder")
    _add_param_flags(sweep, omega=False)
    sweep.add_argument("--omega-ladder", type=_parse_ladder, required=True,
                       metavar="START:STOP:RATIO")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--spectra", action="store_true",
                       help="also compute spectral reports per point")
    sweep.add_argument("--tag", type=str, default=None)

    spec = subs.add_parser("spectrum", help="linearized-operator report")
    _add_param_flags(spec)

    verify = subs.add_parser(
        "verify", help="run the asymptotic-regime verification gates")
    verify.add_argument("--regime", choices=("sub", "crit", "super"),
                        required=True)
    verify.add_argument("--dim", type=int, default=None)
    verify.add_argument("--p", type=_parse_p, default=None)
    verify.add_argument("--delta", type=float, default=1.0)
    verify.add_argument("--omega-ladder", type=_parse_ladder, default=None,
                        metavar="START:STOP:RATIO")
    verify.add_argument("--resolution", type=int, default=None,
                        help="grid resolution (default 1024; 2048 for crit)")
    verify.add_argument("--jobs", type=int, default=1)
    verify.add_argument("--out", type=Path, default=None)
    verify.add_argument("--json", action="store_true")

    fit = subs.add_parser("fit", help="re-fit a stored branch CSV")
    fit.add_argument("--branch", type=Path, required=True,
                     help="path to a branch.csv produced by sweep")
    fit.add_argument("--dim", type=int, required=True)
    fit.add_argument("--p", type=_parse_p, required=True)
    fit.add_argument("--delta", type=float, default=1.0)
    fit.add_argument("--json", action="store_true")
    fit.add_argument("--out", type=Path, default=None)
    return parser


def _out_root(args) -> Path:
    return args.out if args.out is not None else default_out_dir()


def _cmd_solve(args) -> int:
    params = Params(args.dim, args.p, args.delta, args.omega)
    report = solve_ground_state(params, ShootingConfig(resolution=args.resolution))
    tag = f"solve-N{args.dim}-p{args.p}-d{args.delta:g}-w{args.omega:g}"
    root = _out_root(args) / tag
    root.mkdir(parents=True, exist_ok=True)
    report.u.to_csv(root / "u.csv")
    report.v.to_csv(root / "v.csv")
    (root / "solve.json").write_text(report.to_json() + "\n")
    if args.json:
        print(report.to_json())
    else:
        d = report.to_json_dict()
        print(f"ground state N={args.dim} p={float(args.p):g} "
              f"delta={args.delta:g} omega={args.omega:g} [{d['regime']}]")
        print(f"  u(0) = {d['u_height']:.12g}   v(0) = {d['shooting_height']:.12g}")
        print(f"  Pohozaev {d['pohozaev_residual']:.2e}  "
              f"Nehari {d['nehari_residual']:.2e}  ODE {d['ode_residual']:.2e}")
        print(f"  wrote {root}")
    return 0


def _cmd_sweep(args) -> int:
    tag = args.tag or (f"sweep-N{args.dim}-p{args.p}-d{args.delta:g}")
    tag = tag.replace("/", "_")
    plan = SweepPlan(dim=args.dim, p=args.p, delta=args.delta,
                     omegas=args.omega_ladder, resolution=args.resolution,
                     with_spectra=args.spectra, jobs=args.jobs, tag=tag)
    store = branch.run_sweep(plan)
    root = store.write(_out_root(args))
    n_fail = len(store.failures())
    print(f"swept {len(store)} points ({n_fail} failures) -> {root}")
    return 0 if n_fail == 0 else 1


def _cmd_spectrum(args) -> int:
    params = Params(args.dim, args.p, args.delta, args.omega)
    report = solve_ground_state(params, ShootingConfig(resolution=args.resolution))
    sr = spectra.build_spectral_report(report)
    tag = f"spectrum-N{args.dim}-p{args.p}-d{args.delta:g}-w{args.omega:g}"
    root = _out_root(args) / tag.replace("/", "_")
    root.mkdir(parents=True, exist_ok=True)
    (root / "spectrum.json").write_text(sr.to_json() + "\n")
    if args.json:
        print(sr.to_json())
    else:
        print(f"negative count (radial/total): {sr.negative_count_radial}/"
              f"{sr.negative_count_total}")
        print(f"kernel residuals: L- {sr.kernel_residual_lminus:.2e}, "
              f"L+ l=1 {sr.kernel_residual_lplus_ell1:.2e}")
        print(f"M'(omega) = {sr.mprime.primal:.8g} "
              f"(dual route {sr.mprime.dual:.8g})")
        print(f"det L = {sr.matrix.det:.6g}")
        print(f"wrote {root}")
    return 0


# ---------------------------------------------------------------------------
# verification gates
# ---------------------------------------------------------------------------

def _gate(gates: dict, name: str, value, passed: bool) -> None:
    gates[name] = {"value": value, "pass": bool(passed)}


def _default_ladder(regime: str, dim: int = 3) -> tuple[float, ...]:
    """Ladders deep enough for the asymptotic windows of each regime.

    The critical floors are dimension-specific: the approach to the limit
    laws decays like omega^{1/4} for N = 3, (omega log(1/omega))^{1/2} for
    N = 4 and omega^{2/5} for N = 5, which sets how far the ladder must go
    before the fitted exponents and the bubble distance reach their gates.
    """
    if regime == "sub":
        return geometric_ladder(2.0 ** -6, 2.0 ** -14, 0.5)
    if regime == "crit":
        floor = {3: 2.0 ** -26, 4: 2.0 ** -28, 5: 2.0 ** -24}.get(dim, 2.0 ** -16)
        return geometric_ladder(2.0 ** -4, floor, 0.5)
    return geometric_ladder(2.0 ** -4, 2.0 ** -16, 0.5)


def verify_regime(regime: str, dim: Optional[int], p, delta: float,
                  omegas: Optional[tuple[float, ...]], resolution: int,
                  jobs: int) -> dict:
    """Run the per-regime checks and collect named pass/fail gates."""
    gates: dict = {}
    result: dict = {"schema": 1, "regime": regime, "gates": gates}
    if resolution is None:
        # the deepest critical points need the finer quadrature to hold the
        # 1e-6 variational cross-check
        resolution = 2048 if regime == "crit" else 1024
    if regime == "sub":
        dim = dim if dim is not None else 3
        p = p if p is not None else Fraction(2)
        omegas = omegas or _default_ladder("sub", dim)
        plan = SweepPlan(dim=dim, p=p, delta=delta, omegas=omegas,
                         resolution=resolution, jobs=jobs, tag="verify-sub")
        store = branch.run_sweep(plan)
        params = plan.params_at(omegas[0])
        from .shooting import nls_ground_state
        q_rep = nls_ground_state(dim, p, resolution)
        expansion = asymptotics.subcritical_expansion_check(
            store.points(), q_rep, params)
        result["expansion"] = expansion
        _gate(gates, "correction_coefficient_5pct",
              expansion["correction_rel_err"],
              expansion["correction_rel_err"] < 0.05)
        _gate(gates, "intercept_matches_Q_mass",
              expansion["intercept_rel_err"],
              expansion["intercept_rel_err"] < 0.01)
        energy = asymptotics.energy_limit_check(store.points(), params)
        result["energy"] = energy
        mid = omegas[len(omegas) // 2]
        ident = branch.energy_identity_check(params.with_omega(mid),
                                             resolution=resolution)
        _gate(gates, "energy_identity_1pct", ident, ident < 0.01)
        mass_cmp = params.p_exact <= params.p_mass_critical() \
            if params.p_exact is not None \
            else params.p <= float(params.p_mass_critical())
        smallest = min(store.points(), key=lambda q: q.omega)
        sign_ok = (smallest.mprime_res > 0) if mass_cmp \
            else (smallest.mprime_res < 0)
        _gate(gates, "mprime_sign_near_zero", smallest.mprime_res, sign_ok)
    elif regime == "crit":
        dim = dim if dim is not None else 3
        if p is None:
            p = Fraction(dim + 2, dim - 2)
        omegas = omegas or _default_ladder("crit", dim)
        plan = SweepPlan(dim=dim, p=p, delta=delta, omegas=omegas,
                         resolution=resolution, jobs=jobs, tag="verify-crit")
        store = branch.run_sweep(plan)
        params = plan.params_at(omegas[0])
        reports = store.reports()
        last_u = reports[-1].u if reports else None
        crit = asymptotics.critical_scaling_report(
            store.points(), params, last_profile=last_u)
        result["critical"] = {
            k: (v.__dict__ if isinstance(v, asymptotics.FitResult) else v)
            for k, v in crit.items()}
        slopes = {3: (-0.75, 0.04), 5: (-0.4, 0.02)}
        if dim in slopes:
            target, tol = slopes[dim]
            err = abs(crit["mass_fit"].exponent - target)
            _gate(gates, "mass_slope", crit["mass_fit"].exponent, err < tol)
        lam_slopes = {3: (-0.25, 0.02), 5: (-0.2, 0.02)}
        if dim in lam_slopes:
            target, tol = lam_slopes[dim]
            err = abs(crit["lambda_fit"].exponent - target)
            _gate(gates, "lambda_slope", crit["lambda_fit"].exponent, err < tol)
        if dim == 3:
            err = abs(crit["gap_fit"].exponent - 0.25)
            _gate(gates, "level_gap_slope", crit["gap_fit"].exponent, err < 0.05)
        if dim == 4:
            _gate(gates, "mass_log_model_preferred", None,
                  crit["mass_log_preferred"])
            _gate(gates, "lambda_log_model_preferred", None,
                  crit["lambda_log_preferred"])
        _gate(gates, "mprime_negative_and_diverging", None,
              crit["mprime_all_negative"]
              and crit["mprime_magnitude_increasing"])
        if "bubble_distance" in crit:
            _gate(gates, "bubble_distance_1e-2", crit["bubble_distance"],
                  crit["bubble_distance"] < 1e-2)
        energy = asymptotics.energy_limit_check(store.points(), params)
        result["energy"] = energy
        _gate(gates, "energy_limit_3pct", energy["energy_limit_rel_err"],
              energy["energy_limit_rel_err"] < 0.03)
        mid = omegas[len(omegas) // 2]
        ident = branch.energy_identity_check(params.with_omega(mid),
                                             resolution=resolution)
        _gate(gates, "energy_identity_1pct", ident, ident < 0.01)
    else:
        dim = dim if dim is not None else 5
        p = p if p is not None else Fraction(3)
        omegas = omegas or _default_ladder("super", dim)
        plan = SweepPlan(dim=dim, p=p, delta=delta, omegas=omegas,
                         resolution=resolution, jobs=jobs, tag="verify-super",
                         with_spectra=True)
        store = branch.run_sweep(plan)
        params = plan.params_at(omegas[0])
        u0 = solve_ground_state(Params(dim, p, delta, 0.0),
                                ShootingConfig(resolution=resolution))
        sup = asymptotics.supercritical_limit_check(store.points(), u0, params)
        result["supercritical"] = sup
        _gate(gates, "omega_mass_to_zero_monotone", None,
              sup["omega_mass_to_zero_monotone"])
        if dim >= 5:
            _gate(gates, "mass_limit_2pct", sup["mass_limit_rel_err"],
                  sup["mass_limit_rel_err"] < 0.02)
        else:
            _gate(gates, "mass_growth", sup["mass_growth_factor"],
                  sup["mass_growth_factor"] > 3.0)
        dets = [r.spectral.matrix.det for r in store.records()
                if r.spectral is not None]
        _gate(gates, "det_L_negative", max(dets) if dets else None,
              bool(dets) and all(d < 0 for d in dets))
        energy = asymptotics.energy_limit_check(store.points(), params,
                                                u0_report=u0)
        result["energy"] = energy
        _gate(gates, "energy_limit_3pct", energy["energy_limit_rel_err"],
              energy["energy_limit_rel_err"] < 0.03)
        mid = omegas[len(omegas) // 2]
        ident = branch.energy_identity_check(params.with_omega(mid),
                                             resolution=resolution)
        _gate(gates, "energy_identity_1pct", ident, ident < 0.01)
    result["passed"] = all(g["pass"] for g in gates.values())
    result["store"] = store
    return result


def _cmd_verify(args) -> int:
    result = verify_regime(args.regime, args.dim, args.p, args.delta,
                           args.omega_ladder, args.resolution, args.jobs)
    store: BranchStore = result.pop("store")
    root = store.write(_out_root(args))
    payload = _jsonable(result)
    (root / "fits.json").write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for name, gate in result["gates"].items():
            status = "PASS" if gate["pass"] else "FAIL"
            value = gate["value"]
            shown = f" = {value:.6g}" if isinstance(value, float) else ""
            print(f"[{status}] {name}{shown}")
        print(f"wrote {root / 'fits.json'}")
    return 0 if result["passed"] else 1


def _cmd_fit(args) -> int:
    points = BranchStore.read_branch_csv(args.branch)
    if not points:
        raise InvalidParams(f"branch CSV {args.branch} holds no points")
    params = Params(args.dim, args.p, args.delta, points[0].omega)
    regime = classify(params)
    out: dict = {"schema": 1, "regime": regime.tag}
    omegas = [q.omega for q in points]
    masses = [q.mass for q in points]
    out["mass_fit"] = asymptotics.fit_power_law(omegas, masses).__dict__
    if regime.is_critical:
        lams = [q.lambda_omega for q in points]
        if all(x is not None for x in lams):
            out["lambda_fit"] = asymptotics.fit_power_law(omegas, lams).__dict__
        gaps = [q.m_omega - sobolev_constant(args.dim) for q in points
                if q.m_omega is not None]
        if len(gaps) == len(points):
            out["gap_fit"] = asymptotics.fit_power_law(omegas, gaps).__dict__
    text = json.dumps(_jsonable(out), indent=2)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "fits.json").write_text(text + "\n")
    print(text)
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, asymptotics.FitResult):
        return _jsonable(obj.__dict__)
    if isinstance(obj, float) and math.isnan(obj):
        return None
    if hasattr(obj, "item"):   # numpy scalars
        return obj.item()
    return obj


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "fit":
            return _cmd_fit(args)
    except InvalidParams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QGroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
