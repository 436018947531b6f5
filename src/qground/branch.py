"""Frequency-ladder orchestration: scheduling solves, assembling mass-curve
points, warm starts and flat-file persistence.

A sweep walks a geometric omega ladder downward.  Each new point seeds its
shooting bracket from the last height that solved through the NLS scaling
law mapped through the transform (exact for delta = 0, a good first guess
otherwise).  With jobs > 1 the ladder is cut into contiguous chunks, each
walked the same way in its own process.  Records stay in ladder order; a
failed point (a failed gate included) seeds no warm start.  Persistence is
CSV plus JSON sidecars and is byte-deterministic for a fixed plan.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence, Union

from . import spectra, transform
from .asymptotics import (MassCurvePoint, energy_identity_residuals,
                          extract_lambda, ladder_derivative)
from .errors import ConstraintViolated, InvalidParams, QGroundError
from .params import Params
from .shooting import ShootingConfig, SolveReport, solve_ground_state

CSV_COLUMNS = ["omega", "M", "Mprime_fd", "Mprime_res", "T", "beta",
               "Qgrad", "E", "m_omega", "lambda"]


def _fmt(x: Optional[float]) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "nan"
    return f"{x:.17g}"


@dataclass(frozen=True)
class SweepPlan:
    """A ladder of frequencies for one (N, p, delta) with run options."""

    dim: int
    p: Union[int, float, str, Fraction]
    delta: float
    omegas: tuple[float, ...]
    resolution: int = 1024
    with_spectra: bool = False
    jobs: int = 1
    tag: str = "run"

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.omegas, self.omegas[1:])):
            raise InvalidParams("the omega ladder must be strictly decreasing")
        for w in self.omegas:
            Params(self.dim, self.p, self.delta, w)  # validates
        if self.jobs < 1:
            raise InvalidParams(f"jobs must be >= 1, got {self.jobs}")

    def params_at(self, omega: float) -> Params:
        return Params(self.dim, self.p, self.delta, omega)


def geometric_ladder(start: float, stop: float, ratio: float) -> tuple[float, ...]:
    """Frequencies start, start*ratio, ... down to stop (inclusive-ish)."""
    if not (0 < ratio < 1 and 0 < stop <= start):
        raise InvalidParams("need 0 < ratio < 1 and 0 < stop <= start")
    out = []
    w = start
    while w >= stop * (1.0 - 1e-12):
        out.append(w)
        w *= ratio
    return tuple(out)


@dataclass
class PointRecord:
    point: MassCurvePoint
    failure: Optional[str] = None
    report: Optional[SolveReport] = None
    spectral: Optional[spectra.SpectralReport] = None

    @property
    def accepted(self) -> bool:
        """The point solved: solve_ground_state returns accepted reports."""
        return self.report is not None


class BranchStore:
    """One plan's records in ladder order, largest omega first."""

    def __init__(self, plan: SweepPlan, records: Sequence[PointRecord]):
        self.plan = plan
        self._records = list(records)

    def __len__(self) -> int:
        return len(self._records)

    def records(self) -> list[PointRecord]:
        return self._records

    def points(self) -> list[MassCurvePoint]:
        """The solved points, largest omega first."""
        return [r.point for r in self._records if r.accepted]

    def reports(self) -> list[SolveReport]:
        return [r.report for r in self._records if r.accepted]

    def failures(self) -> list[tuple[float, str]]:
        """(omega, message) of every point that failed."""
        return [(r.point.omega, r.failure) for r in self._records if r.failure]

    # -- persistence --------------------------------------------------------

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in self.records():
            q = rec.point
            writer.writerow([_fmt(x) for x in (
                q.omega, q.mass, q.mprime_fd, q.mprime_res, q.dirichlet,
                q.beta, q.quasi_grad, q.energy, q.m_omega, q.lambda_omega)])
        return buf.getvalue()

    def write(self, out_dir: Union[str, Path]) -> Path:
        """Write runs/<tag>/branch.csv plus per-point JSON sidecars."""
        root = Path(out_dir) / self.plan.tag
        (root / "points").mkdir(parents=True, exist_ok=True)
        (root / "branch.csv").write_text(self.to_csv_string())
        for rec in self.records():
            name = f"{rec.point.omega:.17g}.json"
            payload = {"schema": 1, "accepted": rec.accepted,
                       "failure": rec.failure}
            if rec.report is not None:
                payload["solve"] = rec.report.to_json_dict()
            if rec.spectral is not None:
                payload["spectrum"] = rec.spectral.to_json_dict()
            (root / "points" / name).write_text(
                json.dumps(payload, indent=2) + "\n")
        return root

    @staticmethod
    def read_branch_csv(path: Union[str, Path]) -> list[MassCurvePoint]:
        """Points of a branch.csv; InvalidParams if it cannot be read."""
        def val(s: str) -> Optional[float]:
            x = float(s)
            return None if math.isnan(x) else x

        points = []
        try:
            with open(path, newline="") as fh:
                for row in csv.DictReader(fh):
                    points.append(MassCurvePoint(
                        omega=float(row["omega"]), mass=val(row["M"]),
                        mprime_fd=val(row["Mprime_fd"]),
                        mprime_res=val(row["Mprime_res"]),
                        dirichlet=float(row["T"]), beta=float(row["beta"]),
                        quasi_grad=float(row["Qgrad"]),
                        energy=float(row["E"]), m_omega=val(row["m_omega"]),
                        lambda_omega=val(row["lambda"])))
        except (OSError, KeyError, TypeError, ValueError, csv.Error) as exc:
            raise InvalidParams(f"cannot read branch CSV {path}: "
                                f"{type(exc).__name__}: {exc}") from exc
        return points


def scaled_height_guess(prev_height: float, prev_omega: float, omega: float,
                        params: Params) -> float:
    """Warm-start height: the NLS law u(0) ~ w^{1/(p-1)} mapped through h."""
    u0 = transform.r(prev_height, params)
    scaled = (omega / prev_omega) ** (1.0 / (params.p - 1.0)) * u0
    return float(transform.h(scaled, params))


def compute_point(params: Params, resolution: int = 1024,
                  guess: Optional[float] = None,
                  with_spectra: bool = False) -> PointRecord:
    """Solve one branch point and package it as a record (never raises for
    solver failures, a failed gate included: they are recorded instead)."""
    try:
        report = solve_ground_state(
            params, ShootingConfig(resolution=resolution), guess=guess)
    except QGroundError as exc:
        empty = MassCurvePoint(
            omega=params.omega, mass=None, mprime_fd=None, mprime_res=None,
            dirichlet=math.nan, beta=math.nan, quasi_grad=math.nan,
            energy=math.nan, m_omega=None, lambda_omega=None)
        return PointRecord(point=empty, failure=f"{type(exc).__name__}: {exc}")

    spectral = None
    mprime_res = None
    failure = None
    if params.omega > 0:
        try:
            if with_spectra:
                spectral = spectra.build_spectral_report(report)
                mprime_res = spectral.mprime.primal
            else:
                mprime_res = spectra.mprime_resolvent(report.u, params).primal
        except QGroundError as exc:
            failure = f"{type(exc).__name__}: {exc}"
    d = report.diagnostics
    point = MassCurvePoint(
        omega=params.omega, mass=d.mass, mprime_fd=None,
        mprime_res=mprime_res, dirichlet=d.dirichlet, beta=d.beta,
        quasi_grad=d.quasi_grad, energy=d.energy, m_omega=d.m_omega,
        lambda_omega=(extract_lambda(report.u, params)
                      if report.regime.is_critical else None))
    return PointRecord(point, failure, report, spectral)


def _walk(plan: SweepPlan, omegas: Sequence[float]) -> list[PointRecord]:
    """Solve `omegas` in order, each seeded from the last point that solved:
    the one ladder walk behind serial and parallel sweeps alike."""
    records = []
    last = None                     # (omega, height) of the last solve
    for w in omegas:
        params = plan.params_at(w)
        guess = None
        if last is not None:
            guess = scaled_height_guess(last[1], last[0], w, params)
        rec = compute_point(params, plan.resolution, guess, plan.with_spectra)
        if rec.accepted:
            last = (rec.point.omega, rec.report.shooting_height)
        records.append(rec)
    return records


def run_sweep(plan: SweepPlan) -> BranchStore:
    """Walk the ladder, warm-starting each solve from its predecessor.

    The ladder is cut into min(jobs, len(omegas)) contiguous chunks, fixed
    by the ladder length and the job count alone.  One chunk is walked in
    this process; several are walked in a process pool, each from a cold
    first point, and pool.map keeps them in ladder order.  A rerun at the
    same job count is byte-identical.
    """
    omegas = plan.omegas
    chunks = min(plan.jobs, len(omegas))
    if chunks <= 1:
        records = _walk(plan, omegas)
    else:
        cuts = [len(omegas) * i // chunks for i in range(chunks + 1)]
        parts = [omegas[a:b] for a, b in zip(cuts, cuts[1:])]
        with ProcessPoolExecutor(max_workers=chunks) as pool:
            records = [rec for part in pool.map(_walk, [plan] * chunks, parts)
                       for rec in part]
    store = BranchStore(plan, records)
    _fill_mprime_fd(store)
    return store


def _fill_mprime_fd(store: BranchStore) -> None:
    recs = [r for r in reversed(store.records())   # omega increasing
            if r.accepted and r.point.mass is not None]
    omegas = [r.point.omega for r in recs]
    masses = [r.point.mass for r in recs]
    for i in range(1, len(recs) - 1):   # the end points have no stencil
        fd = ladder_derivative(omegas, masses, i)
        recs[i].point = replace(recs[i].point, mprime_fd=fd)


def energy_identity_check(params: Params, resolution: int = 1024) -> float:
    """Relative residual of E'(omega) = -(omega/2) M'(omega) at one point.

    Both sides are centered finite differences on a dedicated local ladder
    of five points at spacing ratio 0.95 (warm-started, so cheap).  The
    production branches use ratio 1/2, too coarse for differencing the
    energy (E ~ omega^{3/2} in the subcritical regime makes the stencil
    bias a few percent there); at ratio 0.95 the bias is ~1e-6.  Raises
    ConstraintViolated when a point of the local ladder does not solve.
    """
    p = params.p_exact if params.p_exact is not None else params.p
    plan = SweepPlan(params.dim, p, params.delta,
                     tuple(params.omega * 0.95 ** k for k in range(-2, 3)),
                     resolution=resolution)
    store = run_sweep(plan)
    for rec in store.records():
        if not rec.accepted:
            raise ConstraintViolated(
                f"energy identity stencil point omega={rec.point.omega!r} "
                f"not accepted: {rec.failure}")
    return energy_identity_residuals(store.points())[1]


def default_out_dir() -> Path:
    return Path(os.environ.get("QG_OUT_DIR", "runs"))
