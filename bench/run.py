"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload cold_solve --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh child process
(bench/worker.py) with BLAS/OpenMP pinned to one thread.  Set-up time is
taken from the spawn of a process to the end of its set-up, in the run's
own process and in SETUP_PROBES more processes that stop after set-up; the
median is reported.  With --trace 1 a single process alternates untraced
and traced rounds and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Lines before it give the inputs,
every metric by name and unit, and any failure messages.  The exit code is
0 when a result was printed and nonzero otherwise.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cold_solve", "warm_ladder", "spectral_report")
#: extra processes that only set up, for the median of setup_s
SETUP_PROBES = 2
#: the whole run, all processes included, must end within this
DEADLINE_S = 170.0


class RunError(Exception):
    pass


def spawn(args, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker process; return its set-up seconds and, unless
    setup_only, its result line."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    setup_s = None
    lines = []
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "ready":
                setup_s = perf_counter() - t0
            else:
                lines.append(line)
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or setup_s is None:
        raise RunError(f"worker exited with code {proc.returncode}"
                       + (" (killed at the deadline)" if proc.returncode < 0
                          else ""))
    if setup_only:
        return setup_s, {}
    if not lines:
        raise RunError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def tail_reference(op_times: list[float]) -> str | None:
    """The highest of p75/p90/p95/p99/p99.9 with at least ten samples beyond
    it; runs with fewer than 40 operations report the median alone."""
    n = len(op_times)
    if n < 40:
        return None
    per_mille = max(q for q in (750, 900, 950, 990, 999) if n * (1000 - q) >= 10000)
    cuts = statistics.quantiles(op_times, n=1000, method="inclusive")
    return f"op_p{per_mille / 10:g}_s = {cuts[per_mille - 1]:.6g} s (n = {n})"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "qground" / "__init__.py").is_file():
        print(f"no qground sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    try:
        setup_s, result = spawn(args, deadline, setup_only=False)
        setups = [setup_s]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn(args, deadline, setup_only=True)[0])
    except RunError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    op_times = result["op_times"]
    if not op_times:
        print(f"{args.workload}: no operation completed", file=sys.stderr)
        return 1
    for line in result["inputs"]:
        print(f"input: {line}")
    for msg in result["errors"] + result["wrong"]:
        print(f"FAILED: {msg}")
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(op_times) / result["timed_s"],
                          "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print("setup samples: " + ", ".join(f"{s:.4f}" for s in setups) + " s")
        tail = tail_reference(op_times)
        if tail:
            print(f"reference: {tail}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not result["wrong"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
