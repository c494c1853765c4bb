#!/usr/bin/env python3
"""Benchmark for fairfrontier: frontier sweeps, the per-group fairness
optimum and the README command block.

Run from the repository root:

    python3 perfbench/run.py --workload frontier-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

`--trace 0` reports the end-to-end metrics (wall_s_p50, peak_rss_mb,
setup_s); `--trace 1` reports the per-layer metrics from a separate traced
run and writes its spans to perfbench/out/. The last line of standard
output is one JSON object: correct, attempted, failed, metrics. `all` runs
every workload, each in its own fresh process. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("frontier-grid", "frontier-intervals", "boundary-alignment",
             "readme-cli")
SETUP_SAMPLES = 3
SETUP_CODE = (
    "import time; t0 = time.perf_counter()\n"
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "import fairfrontier.cli\n"
    "fairfrontier.scenario(sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)
UNITS = {"wall_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def import_package():
    """Import fairfrontier from this checkout's src/, never from elsewhere."""
    pkg = SRC / "fairfrontier"
    if not (pkg / "__init__.py").is_file():
        fail(f"no package at {pkg}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import fairfrontier
    if Path(fairfrontier.__file__).resolve().parent != pkg:
        fail(f"imported fairfrontier from {fairfrontier.__file__}, not {pkg}")


def measure_setup(scenario: str) -> float:
    """Median over fresh interpreters of: import the package, build the
    scenario. One import varies by half its length on a busy host."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), scenario],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, seconds: float):
    """Warm up, then time whole operations until `seconds` have passed."""
    problems = wl.warm_up()
    times, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        gc.collect()
        attempted += 1
        t = time.perf_counter()
        try:
            result = wl.op()
        except Exception as exc:  # counted and reported, the run goes on
            failed += 1
            print(f"perfbench: operation failed: {exc!r}", file=sys.stderr)
            continue
        times.append(time.perf_counter() - t)
        problems += wl.check(result)
        del result
    if not times:
        fail("every operation failed")
    metrics = {"wall_s_p50": statistics.median(times),
               "peak_rss_mb": peak_rss_mb()}
    return metrics, problems, attempted, failed


def traced(wl, name: str, seed: int, out_dir: Path):
    from layers import Tracer, overhead_ratio, walk

    tracer = Tracer()
    t0 = time.perf_counter()
    problems = wl.warm_up()
    gc.collect()
    ratio = overhead_ratio(wl, tracer)
    gc.collect()
    metrics, frontier, found = walk(wl, tracer, out_dir)
    problems += found
    metrics["trace.overhead_ratio"] = ratio
    problems += wl.check_traced(frontier)
    tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl", t0)
    roots = sum(1 for s in tracer.spans if s["parent"] is None)
    return metrics, problems, roots, 0


def run_one(args) -> dict:
    import_package()
    import workloads
    from layers import UNITS as LAYER_UNITS

    cls = workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            wl = cls(out_dir)
            metrics, problems, attempted, failed = traced(
                wl, args.workload, args.seed, out_dir)
            units = LAYER_UNITS
        else:
            setup_s = measure_setup(cls.scenario)
            wl = cls(out_dir)
            metrics, problems, attempted, failed = untraced(wl, args.seconds)
            metrics["setup_s"] = setup_s
            units = UNITS
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match")
    for p in problems:
        print(f"perfbench: wrong output: {p}", file=sys.stderr)
    print(f"{args.workload} (seed {args.seed}): {attempted} operations,"
          f" {failed} failed, {'correct' if not problems else 'WRONG'}")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own fresh process; metrics keyed workload/name."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in one["metrics"].items()})
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and reported; the inputs are fixed"
                             " presets, so every seed gives the same ones")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole operations for this long"
                             " (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
