"""Per-layer tracing by module-attribute wrappers, installed from the
benchmark process; the package under src/ is not modified.

Each wrapper opens a span around one call into a layer.  Spans nest on a
stack, so a layer's self time is its span's duration minus the spans it
opened.  Timers marked "outermost" count a span only when no span with the
same timer is already open, so recursion inside a layer (compute_diagnostics
calling level_m_omega, f_omega calling r) is not counted twice.

Every name is replaced wherever a qground module has bound the same object,
because modules import each other's functions by name
(branch.solve_ground_state, shooting.make_grid, ...).
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

#: per-layer metrics in print order, with units; every workload prints all
#: of them (0 where the workload never enters the layer)
METRICS = {
    "params.grid_builds": "count",
    "params.spline_builds": "count",
    "params.s": "s",
    "transform.rhs_evals": "count",
    "transform.vector_calls": "count",
    "transform.vector_s": "s",
    "shooting.integrations": "count",
    "shooting.bisect_steps": "count",
    "shooting.bracket_integrations": "count",
    "shooting.integrate_s": "s",
    "shooting.self_s": "s",
    "integrals.level_calls": "count",
    "integrals.diagnostics_s": "s",
    "spectra.assemble_calls": "count",
    "spectra.assemble_s": "s",
    "spectra.banded_solves": "count",
    "spectra.sturm_s": "s",
    "spectra.eig_s": "s",
    "spectra.matrix_l_s": "s",
    "spectra.mprime_s": "s",
    "branch.point_s": "s",
    "branch.guess_rel_err": "ratio",
    "branch.fill_fd_s": "s",
    "asymptotics.s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Counters and span timers filled by the installed wrappers."""

    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.guesses: list[float] = []
        self._stack: list[float] = []          # child seconds per open span
        self._open: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        self._in_bracket = 0

    # -- wrapping ------------------------------------------------------------

    def _span(self, func, *, timer=None, self_timer=None, counter=None,
              when=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return func(*args, **kwargs)
            outermost = timer is not None and tracer._open[timer] == 0
            if timer is not None:
                tracer._open[timer] += 1
            tracer._stack.append(0.0)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += dt
                if timer is not None:
                    tracer._open[timer] -= 1
                    if outermost:
                        tracer.totals[timer] += dt
                if self_timer is not None:
                    tracer.totals[self_timer] += dt - child
                if counter is not None:
                    tracer.totals[counter] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def _replace(self, owner, name: str, wrapper) -> None:
        """Bind `wrapper` to `owner.name` and to every qground module that
        holds the same object under that name."""
        original = getattr(owner, name)
        targets = [owner] + [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith("qground") and mod is not owner
            and getattr(mod, name, None) is original]
        for target in targets:
            self._patches.append((target, name, original))
            setattr(target, name, wrapper)

    def wrap(self, owner, name: str, **span) -> None:
        self._replace(owner, name, self._span(getattr(owner, name), **span))

    # -- the layer map -------------------------------------------------------

    def install(self) -> None:
        from qground import (asymptotics, branch, integrals, params,
                             shooting, spectra, transform)
        totals = self.totals

        # params: grids, Hermite splines and their evaluation
        self.wrap(params, "make_grid", timer="params.s",
                  counter="params.grid_builds")
        self.wrap(params, "CubicHermiteSpline",
                  counter="params.spline_builds")
        self.wrap(params.RadialProfile, "__call__", timer="params.s")

        # transform: the vectorised Newton inverse of h (scalar calls from
        # the launch series are left alone)
        self.wrap(transform, "r", timer="transform.vector_s",
                  counter="transform.vector_calls",
                  when=lambda a, k: np.ndim(a[0]) > 0)

        # shooting: every ODE integration, bracket expansion, the solve
        def ode_done(args, kwargs, sol):
            totals["transform.rhs_evals"] += sol.nfev
            if self._in_bracket:
                totals["shooting.bracket_integrations"] += 1

        self.wrap(shooting, "solve_ivp", timer="shooting.integrate_s",
                  counter="shooting.integrations", after=ode_done)
        bracket = shooting._Shooter.expand_bracket

        def expand_bracket(*args, **kwargs):
            self._in_bracket += 1
            try:
                return bracket(*args, **kwargs)
            finally:
                self._in_bracket -= 1

        self._replace(shooting._Shooter, "expand_bracket",
                      self._span(expand_bracket, self_timer="shooting.self_s"))

        def solved(args, kwargs, report):
            totals["shooting.bisect_steps"] += report.iterations

        self.wrap(shooting, "solve_ground_state",
                  self_timer="shooting.self_s", after=solved)

        # integrals: the level and the diagnostics behind the identity gates
        self.wrap(integrals, "level_m_omega", timer="integrals.diagnostics_s",
                  counter="integrals.level_calls")
        for name in ("compute_diagnostics", "pohozaev_residual",
                     "nehari_residual"):
            self.wrap(integrals, name, timer="integrals.diagnostics_s")

        # spectra
        self.wrap(spectra, "assemble", timer="spectra.assemble_s",
                  counter="spectra.assemble_calls")
        self.wrap(spectra, "solve_banded", counter="spectra.banded_solves")
        self.wrap(spectra, "negative_count", timer="spectra.sturm_s")
        self.wrap(spectra, "eigh_tridiagonal", timer="spectra.eig_s")
        self.wrap(spectra, "matrix_l", timer="spectra.matrix_l_s")
        self.wrap(spectra, "mprime_resolvent", timer="spectra.mprime_s")

        # branch: one ladder point, the warm-start guess, the FD fill
        def point_done(args, kwargs, rec):
            guess = kwargs.get("guess", args[2] if len(args) > 2 else None)
            if guess is not None and rec.report is not None:
                height = rec.report.shooting_height
                self.guesses.append(abs(guess - height) / height)

        self.wrap(branch, "compute_point", timer="branch.point_s",
                  after=point_done)
        self.wrap(branch, "_fill_mprime_fd", timer="branch.fill_fd_s")

        # asymptotics, as reached from the ladder
        for name in ("extract_lambda", "ladder_derivative"):
            self.wrap(asymptotics, name, timer="asymptotics.s")

    def uninstall(self) -> None:
        for target, name, original in reversed(self._patches):
            setattr(target, name, original)
        self._patches.clear()

    def per_op(self, ops: int) -> dict[str, float]:
        """Every traced metric divided by the number of traced operations;
        the guess error is a mean over the warm-started points."""
        out = {name: self.totals.get(name, 0.0) / ops for name in METRICS}
        out["branch.guess_rel_err"] = (
            sum(self.guesses) / len(self.guesses) if self.guesses else 0.0)
        return out
