"""The three workloads: inputs drawn from the seed, set-up, the steps of
one round and the checks on every operation's output.

A round is a list of steps; a step makes one timed call into the program
(one solve, one report, one whole ladder) and checks what it returned.
Every round repeats the same steps, so a run is a whole number of identical
rounds whatever its length: per-operation counts from the traced run repeat
exactly, and the share of failed operations does not depend on where the
clock stops.  Each workload is a closed loop with one caller.
"""
from __future__ import annotations

import json
import random
from functools import partial
from pathlib import Path
from time import perf_counter

from qground import branch, shooting, spectra
from qground.errors import QGroundError
from qground.params import Params

import checks

ORACLE = json.loads(Path(__file__).with_name("oracle.json").read_text())["q0"]
IDENTITY_TOL = 1e-6      # Pohozaev, Nehari, critical identity: share of scale


def _jitter(rng: random.Random, centre: float, octaves: float) -> float:
    """A frequency drawn log-uniformly within `octaves` of `centre`."""
    return centre * 2.0 ** rng.uniform(-octaves, octaves)


class Tally:
    """Outcome of steps: the time of each operation, the timed seconds,
    the number of failed operations, and messages for operations that
    raised or were not accepted (errors) and for outputs that failed a
    check (wrong)."""

    def __init__(self):
        self.op_times: list[float] = []
        self.timed_s = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []

    def fail(self, messages: list[str], wrong: bool = True) -> None:
        if messages:
            self.failed += 1
            (self.wrong if wrong else self.errors).extend(messages)

    def add(self, other: "Tally") -> None:
        self.op_times += other.op_times
        self.timed_s += other.timed_s
        self.failed += other.failed
        self.errors += other.errors
        self.wrong += other.wrong


class ColdSolve:
    """`shooting.solve_ground_state` with no guess on a fixed mix of
    regimes.  Calling the solver directly means the per-process cache of
    nls_ground_state never serves a repeat."""

    RESOLUTION = 1024
    OCTAVES = 0.1
    #: each family is solved at its centre frequency times 2^-0.6, 1 and
    #: 2^0.6, all shifted by the seed.  Nineteen distinct solves per round
    #: spread the times of one family apart, so the median falls in a dense
    #: stretch of the mix rather than on a gap between families, and two
    #: rounds (about 43 s) average over the machine's speed drift
    SPREAD = (-0.6, 0.0, 0.6)
    FAMILIES = (
        (3, 3, 0.0, 1.0),          # subcritical NLS, oracle-checked
        (2, 3, 0.0, 0.6),          # two-dimensional (mass-critical) NLS
        (3, 2, 1.0, 1.0),          # subcritical quasilinear, p < 1 + 4/N
        (3, 3, 1.0, 0.5),          # subcritical quasilinear, p > 1 + 4/N
        (3, 5, 1.0, 2.0 ** -6),    # critical
        (5, 3, 1.0, 0.05),         # supercritical
    )
    ZERO_MASS = (5, 3, 1.0, 0.0)   # fixed: omega = 0 has no scale to draw

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = []
        for n, p, d, w in self.FAMILIES:
            shifted = _jitter(rng, w, self.OCTAVES)
            self.inputs += [Params(n, p, d, shifted * 2.0 ** k)
                            for k in self.SPREAD]
        self.inputs.append(Params(*self.ZERO_MASS))
        self.cfg = shooting.ShootingConfig(resolution=self.RESOLUTION)

    def describe(self) -> list[str]:
        return [f"solve N={q.dim} p={q.p:g} delta={q.delta:g} omega={q.omega:.6g}"
                for q in self.inputs]

    def setup(self) -> None:
        shooting.solve_ground_state(self.inputs[0], self.cfg)   # warm-up

    def steps(self) -> list:
        return [partial(self.solve, params) for params in self.inputs]

    def solve(self, params) -> Tally:
        out = Tally()
        t0 = perf_counter()
        try:
            report = shooting.solve_ground_state(params, self.cfg)
        except QGroundError as exc:
            out.fail([f"{params}: {type(exc).__name__}: {exc}"], wrong=False)
            return out
        finally:
            out.op_times.append(perf_counter() - t0)
            out.timed_s = out.op_times[0]
        if not report.accepted():
            out.fail([f"{params}: solve not accepted"], wrong=False)
        else:
            out.fail([f"{params}: {m}" for m in self.check(report)])
        return out

    @staticmethod
    def check(report) -> list[str]:
        q = report.params
        bad = []
        if q.delta == 0.0:
            expected = q.omega ** (1.0 / (q.p - 1.0)) * ORACLE[f"{q.dim},{q.p:g}"]
            rel = abs(report.shooting_height - expected) / expected
            if rel > 1e-9:
                bad.append(f"height off the Radau oracle by {rel:.2e}")
        f = checks.functionals(report.u, q.p, q.dim)
        poh, neh = checks.identity_residuals(f, q.dim, q.p, q.delta, q.omega)
        if not max(poh, neh) < IDENTITY_TOL:
            bad.append(f"Pohozaev {poh:.2e} / Nehari {neh:.2e} above "
                       f"{IDENTITY_TOL:g} T")
        h_err = checks.h_error(report.u.values, report.v.values, q.delta)
        if not h_err <= 1e-11:
            bad.append(f"v differs from h(u) by {h_err:.2e} of v(0)")
        if not checks.positive_nonincreasing(report.u.values):
            bad.append("u is not positive and nonincreasing")
        return bad


class WarmLadder:
    """`branch.run_sweep` (jobs = 1) down the critical N = 3, p = 5,
    delta = 1 ladder; each ladder point is one operation."""

    DIM, P, DELTA = 3, 5, 1.0
    RESOLUTION = 2048
    POINTS = 9
    OCTAVES = 0.1

    def __init__(self, seed: int):
        rng = random.Random(seed)
        start = _jitter(rng, 2.0 ** -4, self.OCTAVES)
        self.plan = branch.SweepPlan(
            dim=self.DIM, p=self.P, delta=self.DELTA,
            omegas=tuple(start * 0.5 ** k for k in range(self.POINTS)),
            resolution=self.RESOLUTION, jobs=1)
        self._point_times: list[float] = []
        compute_point = branch.compute_point

        def timed_point(*args, **kwargs):
            t0 = perf_counter()
            try:
                return compute_point(*args, **kwargs)
            finally:
                self._point_times.append(perf_counter() - t0)

        branch.compute_point = timed_point

    def describe(self) -> list[str]:
        w = self.plan.omegas
        return [f"ladder N=3 p=5 delta=1 omega {w[0]:.6g} .. {w[-1]:.6g} "
                f"ratio 1/2 ({len(w)} points, resolution {self.RESOLUTION})"]

    def setup(self) -> None:
        branch.compute_point(self.plan.params_at(self.plan.omegas[0]),
                             self.RESOLUTION)                    # warm-up

    def steps(self) -> list:
        return [self.sweep]

    def sweep(self) -> Tally:
        out = Tally()
        self._point_times.clear()
        t0 = perf_counter()
        store = branch.run_sweep(self.plan)
        out.timed_s = perf_counter() - t0
        out.op_times = list(self._point_times)
        records = store.records()
        rejected = [r for r in records
                    if not (r.accepted and r.failure is None and r.report)]
        missing = len(self.plan.omegas) - len(records)
        for r in rejected:
            out.fail([f"omega={r.point.omega:.6g}: not accepted ({r.failure})"],
                     wrong=False)
        for _ in range(missing):
            out.fail(["ladder point missing from the store"], wrong=False)
        if not rejected and not missing:
            for messages in self.check(records):
                out.fail(messages)
        return out

    def check(self, records) -> list[list[str]]:
        """Messages per ladder point, in ladder order."""
        omegas = [r.point.omega for r in records]
        fs = [checks.functionals(r.report.u, self.P, self.DIM) for r in records]
        masses = [f["M"] for f in fs]
        out = []
        for i, rec in enumerate(records):
            w, mp = rec.point.omega, rec.point.mprime_res
            bad = []
            if not mp < 0:
                bad.append(f"M' = {mp} is not negative")
            if i and not masses[i] > masses[i - 1]:
                bad.append("M does not increase as omega drops")
            if 0 < i < len(records) - 1:
                fd = checks.log_slope_derivative(omegas, masses, i)
                if not abs(mp - fd) <= 0.01 * abs(fd):
                    bad.append(f"resolvent M' {mp:.6g} vs difference {fd:.6g}")
            lhs = self.DELTA * fs[i]["Q"]
            rhs = w * fs[i]["M"] / (self.DIM - 2)
            if not abs(lhs - rhs) <= IDENTITY_TOL * rhs:
                bad.append(f"delta Q = {lhs:.10g} but omega M/(N-2) = {rhs:.10g}")
            out.append([f"omega={w:.6g}: {m}" for m in bad])
        return out


class SpectralReport:
    """`spectra.build_spectral_report` cycling over profiles solved during
    set-up; no ODE integration runs in the timed rounds."""

    RESOLUTION = 1024
    OCTAVES = 0.1
    #: (N, p, delta, centre of omega); the last one is supercritical.  Their
    #: reports take about 13, 19 and 24 ms, so the median of a run sits in
    #: the middle of the critical profile's cluster of times
    PROFILES = (
        (3, 3, 0.0, 1.0),          # NLS: M' follows the exact scaling law
        (3, 5, 1.0, 2.0 ** -6),    # critical quasilinear
        (5, 3, 1.0, 0.05),         # supercritical: det L < 0
    )

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.inputs = [Params(n, p, d, _jitter(rng, w, self.OCTAVES))
                       for n, p, d, w in self.PROFILES]
        self.solves = []
        self.masses = []
        self.reference = []

    def describe(self) -> list[str]:
        return [f"report N={q.dim} p={q.p:g} delta={q.delta:g} omega={q.omega:.6g}"
                for q in self.inputs]

    def setup(self) -> None:
        cfg = shooting.ShootingConfig(resolution=self.RESOLUTION)
        for params in self.inputs:
            report = shooting.solve_ground_state(params, cfg)
            if not report.accepted():
                raise QGroundError(f"set-up solve {params} not accepted")
            self.solves.append(report)
            self.masses.append(
                checks.functionals(report.u, params.p, params.dim)["M"])
            # the warm-up report also builds the profile's spline once, so
            # every timed round does the same work
            self.reference.append(
                spectra.build_spectral_report(report).to_json_dict())

    def steps(self) -> list:
        return [partial(self.report, i) for i in range(len(self.solves))]

    def report(self, i: int) -> Tally:
        out = Tally()
        solve = self.solves[i]
        t0 = perf_counter()
        try:
            report = spectra.build_spectral_report(solve)
        except QGroundError as exc:
            out.fail([f"{solve.params}: {type(exc).__name__}: {exc}"],
                     wrong=False)
            return out
        finally:
            out.op_times.append(perf_counter() - t0)
            out.timed_s = out.op_times[0]
        out.fail([f"{solve.params}: {m}" for m in self.check(i, report)])
        return out

    def check(self, i: int, report) -> list[str]:
        q = self.inputs[i]
        bad = []
        if (report.negative_count_radial, report.negative_count_total) != (1, 1):
            bad.append(f"negative counts {report.negative_count_radial}, "
                       f"{report.negative_count_total}")
        if not report.lminus_ground_cosine >= 1.0 - 1e-5:
            bad.append(f"L- ground cosine {report.lminus_ground_cosine!r}")
        if q.delta == 0.0:
            law = (2.0 / (q.p - 1.0) - q.dim / 2.0) * self.masses[i] / q.omega
            rel = abs(report.mprime.primal - law) / abs(law)
            if not rel <= 1e-3:
                bad.append(f"M' off the scaling law by {rel:.2e}")
        if i == len(self.PROFILES) - 1 and not report.matrix.det < 0:
            bad.append(f"det L = {report.matrix.det} on the supercritical "
                       "profile")
        if report.to_json_dict() != self.reference[i]:
            bad.append("report differs from the first report of this profile")
        return bad


WORKLOADS = {"cold_solve": ColdSolve, "warm_ladder": WarmLadder,
             "spectral_report": SpectralReport}
