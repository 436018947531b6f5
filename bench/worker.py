"""One workload process: set-up, then timed rounds, then one JSON line.

Started by bench/run.py, never by hand.  It prints `ready` the moment
set-up ends (run.py times set-up from the spawn to that line); with
--setup-only it exits there.  Otherwise it runs whole rounds until
--seconds have passed and prints its raw results as the last line.

With --trace 1 every step runs twice, untraced and then traced, so the
tracing overhead is measured on identical calls made seconds apart.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
#: BLAS/OpenMP pools read these when the library loads, so they are set
#: before qground imports numpy
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: failure messages kept in the result line
MAX_MESSAGES = 20


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import qground
    if Path(qground.__file__).resolve().parent != BENCH.parent / "src" / "qground":
        print(f"qground imported from {qground.__file__}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    from tracing import METRICS, Tracer
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runs = {False: Tally(), True: Tally()}     # untraced, traced
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        for step in workload.steps():
            runs[False].add(step())
            if tracer is not None:
                # the same step again, traced, right after the untraced one:
                # the pair sees the same machine speed
                tracer.install()
                try:
                    runs[True].add(step())
                finally:
                    tracer.uninstall()

    total = Tally()
    total.add(runs[False])
    total.add(runs[True])
    result = {
        "inputs": workload.describe(),
        "attempted": len(total.op_times),
        "errors": total.errors[:MAX_MESSAGES],
        "wrong": total.wrong[:MAX_MESSAGES],
        "failed": total.failed,
        "op_times": runs[False].op_times,
        "timed_s": runs[False].timed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        values = tracer.per_op(len(runs[True].op_times))
        values["trace.overhead_pct"] = 100.0 * (
            runs[True].timed_s / runs[False].timed_s - 1.0)
        result["layers"] = {name: {"value": values[name], "unit": unit}
                            for name, unit in METRICS.items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
