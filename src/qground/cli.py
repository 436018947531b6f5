"""Command-line interface: solve, sweep, spectrum, verify and fit.

Exit codes: 0 success, 1 failed verification gates (or failed sweep
points), 2 invalid flags or parameters, or an --out directory that cannot be
written, 3 a solve that raised a typed solver failure (a QGroundError such
as BracketFailure).  The output root defaults to $QG_OUT_DIR (or ./runs).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from . import asymptotics, branch, spectra
from .errors import InvalidParams, QGroundError
from .integrals import sobolev_constant
from .params import (CRITICAL, MASS_SUBCRITICAL, SUBCRITICAL, SUPERCRITICAL,
                     Params, classify)
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


def _tag(args) -> str:
    """The run's directory name: --tag, or the command and its parameters;
    the slash of a fractional p becomes "_" so the name stays one path
    component."""
    tag = getattr(args, "tag", None) or (
        f"{args.command}-N{args.dim}-p{args.p}-d{args.delta:g}"
        + (f"-w{args.omega:g}" if hasattr(args, "omega") else ""))
    return tag.replace("/", "_")


def _cmd_solve(args) -> int:
    params = Params(args.dim, args.p, args.delta, args.omega)
    report = solve_ground_state(params, ShootingConfig(resolution=args.resolution))
    root = _out_root(args) / _tag(args)
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
    plan = SweepPlan(dim=args.dim, p=args.p, delta=args.delta,
                     omegas=args.omega_ladder, resolution=args.resolution,
                     with_spectra=args.spectra, jobs=args.jobs,
                     tag=_tag(args))
    store = branch.run_sweep(plan)
    root = store.write(_out_root(args))
    n_fail = len(store.failures())
    print(f"swept {len(store)} points ({n_fail} failures) -> {root}")
    return 0 if n_fail == 0 else 1


def _cmd_spectrum(args) -> int:
    params = Params(args.dim, args.p, args.delta, args.omega)
    report = solve_ground_state(params, ShootingConfig(resolution=args.resolution))
    sr = spectra.build_spectral_report(report)
    root = _out_root(args) / _tag(args)
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

def _critical_p(dim: int) -> Fraction:
    # (N+2)/(N-2) depends on N alone; p = 2 is admissible for every N >= 2
    p = Params(dim, 2, 0.0, 1.0).p_critical()
    if p is None:
        raise InvalidParams("the critical regime needs N >= 3")
    return p


def _check_sub(plan: SweepPlan, store: BranchStore, params: Params):
    """Second-order expansion against Q, and the sign of M' by p vs 1 + 4/N."""
    q_rep = solve_ground_state(Params(plan.dim, plan.p, 0.0, 1.0),
                               ShootingConfig(resolution=plan.resolution))
    expansion = asymptotics.subcritical_expansion_check(
        store.points(), q_rep, params)
    mprime = min(store.points(), key=lambda q: q.omega).mprime_res
    increasing = classify(params).mass_tag == MASS_SUBCRITICAL
    sign_ok = mprime is not None and (mprime > 0 if increasing else mprime < 0)
    corr, icpt = expansion["correction_rel_err"], expansion["intercept_rel_err"]
    return expansion, [
        ("correction_coefficient_5pct", corr, corr < 0.05),
        ("intercept_matches_Q_mass", icpt, icpt < 0.01),
        ("mprime_sign_near_zero", mprime, sign_ok)], None


#: (gate, fit, {N: (exponent, tolerance)}) for the critical power laws
_CRIT_SLOPES = (
    ("mass_slope", "mass_fit", {3: (-0.75, 0.04), 5: (-0.4, 0.02)}),
    ("lambda_slope", "lambda_fit", {3: (-0.25, 0.02), 5: (-0.2, 0.02)}),
    ("level_gap_slope", "gap_fit", {3: (0.25, 0.05)}),
)


def _check_crit(plan: SweepPlan, store: BranchStore, params: Params):
    """Power laws of M, lambda and the level gap, the M' trend and the
    distance of the deepest profile to the Aubin-Talenti bubble."""
    reports = store.reports()
    crit = asymptotics.critical_scaling_report(
        store.points(), params, last_profile=reports[-1].u if reports else None)
    gates = []
    for name, fit, laws in _CRIT_SLOPES:
        if plan.dim in laws:
            target, tol = laws[plan.dim]
            slope = crit[fit].exponent
            gates.append((name, slope, abs(slope - target) < tol))
    if plan.dim == 4:
        gates += [("mass_log_model_preferred", None, crit["mass_log_preferred"]),
                  ("lambda_log_model_preferred", None,
                   crit["lambda_log_preferred"])]
    gates.append(("mprime_negative_and_diverging", None,
                  crit["mprime_all_negative"]
                  and crit["mprime_magnitude_increasing"]))
    if "bubble_distance" in crit:
        dist = crit["bubble_distance"]
        gates.append(("bubble_distance_1e-2", dist, dist < 1e-2))
    block = {k: (v.__dict__ if isinstance(v, asymptotics.FitResult) else v)
             for k, v in crit.items()}
    return block, gates, None


def _check_super(plan: SweepPlan, store: BranchStore, params: Params):
    """omega M -> 0, the mass limit against the zero-mass solution (N >= 5)
    or unbounded growth (N < 5), and det L < 0 on every point."""
    u0 = solve_ground_state(params.with_omega(0.0),
                            ShootingConfig(resolution=plan.resolution))
    sup = asymptotics.supercritical_limit_check(store.points(), u0, params)
    if plan.dim >= 5:
        mass_gate = ("mass_limit_2pct", sup["mass_limit_rel_err"],
                     sup["mass_limit_rel_err"] < 0.02)
    else:
        mass_gate = ("mass_growth", sup["mass_growth_factor"],
                     sup["mass_growth_factor"] > 3.0)
    dets = [r.spectral.matrix.det for r in store.records()
            if r.spectral is not None]
    return sup, [
        ("omega_mass_to_zero_monotone", None,
         sup["omega_mass_to_zero_monotone"]),
        mass_gate,
        ("det_L_negative", max(dets) if dets else None,
         bool(dets) and all(d < 0 for d in dets))], u0


@dataclass(frozen=True)
class _RegimeSpec:
    """Defaults and checks of one omega -> 0 regime.

    `check(plan, store, params)` returns the regime's result block, its
    gates as (name, value, passed) and the zero-mass solve (or None) that
    the energy limit needs.
    """

    block: str                  # key of the check's block in the result
    tag: str                    # the Sobolev regime the exponent must be in
    dim: int
    p: Callable[[int], Fraction]
    ladder: Callable[[int], tuple[float, ...]]
    resolution: int
    with_spectra: bool
    energy_gate: bool           # gate the energy limit at 3 %
    check: Callable


#: critical ladder floors per N: the approach to the limit laws decays like
#: omega^{1/4} for N = 3, (omega log(1/omega))^{1/2} for N = 4 and
#: omega^{2/5} for N = 5, which sets how far the ladder must go before the
#: fitted exponents and the bubble distance reach their gates
_CRIT_FLOORS = {3: 2.0 ** -26, 4: 2.0 ** -28, 5: 2.0 ** -24}

_REGIMES = {
    "sub": _RegimeSpec(
        block="expansion", tag=SUBCRITICAL, dim=3,
        p=lambda dim: Fraction(2),
        ladder=lambda dim: geometric_ladder(2.0 ** -6, 2.0 ** -14, 0.5),
        resolution=1024, with_spectra=False, energy_gate=False,
        check=_check_sub),
    # the deepest critical points need the finer quadrature to pass the
    # dual Pohozaev gate, the binding one there, at 1e-6
    "crit": _RegimeSpec(
        block="critical", tag=CRITICAL, dim=3, p=_critical_p,
        ladder=lambda dim: geometric_ladder(
            2.0 ** -4, _CRIT_FLOORS.get(dim, 2.0 ** -16), 0.5),
        resolution=2048, with_spectra=False, energy_gate=True,
        check=_check_crit),
    "super": _RegimeSpec(
        block="supercritical", tag=SUPERCRITICAL, dim=5,
        p=lambda dim: Fraction(3),
        ladder=lambda dim: geometric_ladder(2.0 ** -4, 2.0 ** -16, 0.5),
        resolution=1024, with_spectra=True, energy_gate=True,
        check=_check_super),
}


def verify_regime(regime: str, dim: Optional[int], p, delta: float,
                  omegas: Optional[tuple[float, ...]],
                  resolution: Optional[int], jobs: int) -> dict:
    """Sweep the regime's ladder and collect its named pass/fail gates.

    Unset arguments take the regime's defaults from `_REGIMES`; an
    exponent outside the regime raises InvalidParams before any solve.
    Every regime runs the same pipeline: the sweep (tag verify-<regime>), the
    regime's own checks, the energy limit (gated at 3 % where the regime
    has a nonzero limit) and the identity E' = -(omega/2) M' at the middle
    frequency (gated at 1 %).  Boolean gates carry value None.  The result
    holds the gates, the regime's block, the energy block, `passed` and the
    branch store.
    """
    spec = _REGIMES[regime]
    dim = spec.dim if dim is None else dim
    plan = SweepPlan(dim=dim, p=spec.p(dim) if p is None else p, delta=delta,
                     omegas=omegas or spec.ladder(dim),
                     resolution=spec.resolution if resolution is None
                     else resolution,
                     with_spectra=spec.with_spectra, jobs=jobs,
                     tag=f"verify-{regime}")
    params = plan.params_at(plan.omegas[0])
    tag = classify(params).tag
    if tag != spec.tag:
        raise InvalidParams(f"verify --regime {regime} needs a {spec.tag} "
                            f"exponent; p = {plan.p} is {tag} for N = {dim}")
    store = branch.run_sweep(plan)
    block, checks, u0 = spec.check(plan, store, params)
    energy = asymptotics.energy_limit_check(store.points(), params,
                                            u0_report=u0)
    if spec.energy_gate:
        err = energy["energy_limit_rel_err"]
        checks.append(("energy_limit_3pct", err, err < 0.03))
    mid = plan.omegas[len(plan.omegas) // 2]
    ident = branch.energy_identity_check(params.with_omega(mid),
                                         resolution=plan.resolution)
    checks.append(("energy_identity_1pct", ident, ident < 0.01))
    gates = {name: {"value": value, "pass": bool(ok)}
             for name, value, ok in checks}
    return {"schema": 1, "regime": regime, "gates": gates, spec.block: block,
            "energy": energy, "passed": all(g["pass"] for g in gates.values()),
            "store": store}


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
    if isinstance(obj, float) and not math.isfinite(obj):
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
    except (InvalidParams, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QGroundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
