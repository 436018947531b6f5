"""The benchmark's tracer wraps qground by attribute name; a rename in src/
that it relies on breaks `bench/run.py --trace 1`.  This guards the names."""
import importlib.util
from pathlib import Path

from qground import shooting
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
