"""The benchmark's tracer wraps qground by attribute name; a rename in src/
that it relies on breaks `bench/run.py --trace 1`.  This guards the names."""
import importlib.util
import os
from pathlib import Path

from qground import branch, shooting, spectra
from qground.params import Params

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_a_solve():
    tracer = _load_tracing().Tracer()
    ivp = shooting.solve_ivp
    tracer.install()
    try:
        assert shooting.solve_ivp is not ivp
        rep = shooting.solve_ground_state(Params(3, 3, 0.0, 1.0))
    finally:
        tracer.uninstall()
    assert shooting.solve_ivp is ivp
    totals = tracer.totals
    assert totals["shooting.integrations"] == rep.iterations + 1
    assert totals["shooting.bisect_steps"] == rep.iterations
    assert 1 <= totals["shooting.bracket_integrations"] <= rep.iterations
    # one vectorised inverse of h per solve, for the off-trajectory nodes
    assert totals["transform.vector_calls"] == 1


def test_tracer_counts_one_assembly_per_operator(crit3):
    # L+ and L- once each with both sectors, then the four M' levels that
    # the report's L+ does not serve; five banded solves for M'
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        spectra.build_spectral_report(crit3)
    finally:
        tracer.uninstall()
    assert tracer.totals["spectra.assemble_calls"] == 6
    assert tracer.totals["spectra.banded_solves"] == 5


def test_sweep_calls_compute_point_in_process():
    # the warm_ladder workload times points by replacing
    # branch.compute_point, and the tracer reads the guess from args[2]
    calls = []
    real = branch.compute_point

    def spy(*args, **kwargs):
        calls.append((os.getpid(), args, kwargs))
        return real(*args, **kwargs)

    plan = branch.SweepPlan(dim=3, p=3, delta=0.0, omegas=(1.0, 0.5, 0.25),
                            jobs=1)
    branch.compute_point = spy
    try:
        store = branch.run_sweep(plan)
    finally:
        branch.compute_point = real
    assert [args[0].omega for _, args, _ in calls] == list(plan.omegas)
    assert all(pid == os.getpid() for pid, _, _ in calls)
    assert all(kwargs == {} and len(args) == 4 for _, args, kwargs in calls)
    heights = [r.report.shooting_height for r in store.records()]
    guesses = [args[2] for _, args, _ in calls]
    assert guesses[0] is None
    for i in (1, 2):
        assert guesses[i] == branch.scaled_height_guess(
            heights[i - 1], plan.omegas[i - 1], plan.omegas[i],
            plan.params_at(plan.omegas[i]))
