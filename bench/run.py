"""Benchmark of resdet: the reactor study, detector calibration and large-n solvers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository; resdet is imported from
its `src/` directory.  The run repeats whole rounds of the workload, each
round in a fresh `worker.py` process, until `S` seconds have passed, and
prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (medians over the
rounds); with `--trace 1` rounds alternate between untraced and traced and
the metrics are the per-layer ones (medians over the traced rounds) and
the tracing overhead.  Names and units come from BENCHMARK.json at the
root of the checkout.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
# A round that takes longer than this has hung: the run stops without a result.
ROUND_TIMEOUT_S = 150.0
# BLAS threads are pinned so that rounds do not compete for the cores and
# the generated loops come out bit for bit the same on every run.
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def spawn(args, traced: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    workloads.prepare(args.workload, args.seed)
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        env={**os.environ, **ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=ROUND_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    start = time.monotonic()
    if not Path("src/resdet/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("run from the root of a resdet checkout (src/resdet and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]} or args.seed < 0:
        print(f"unknown workload {args.workload!r} or negative seed", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # Untimed: fill the page cache and compile the package's bytecode.
    subprocess.run([sys.executable, "-c", "import resdet.cli"], cwd="src", env={**os.environ, **ENV},
                   check=True, timeout=60)
    rounds = []
    try:
        while not rounds or time.monotonic() - start < args.seconds or (args.trace and len(rounds) < 2):
            rounds.append(spawn(args, traced=bool(args.trace) and len(rounds) % 2 == 1))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"round {len(rounds)}: {exc}", file=sys.stderr)
        return 1

    for i, rnd in enumerate(rounds):
        print(f"round {i}{' traced' if rnd['layers'] else ''}: setup_s {rnd['setup_s']:.4f} "
              f"job_s {rnd['job_s']:.4f} peak_rss_mb {rnd['peak_rss_mb']:.1f} "
              f"failed {rnd['failed']}/{rnd['attempted']}", file=sys.stderr)
        for message in rnd["failures"]:
            print(f"  failed: {message}", file=sys.stderr)
        for message in rnd["errors"]:
            print(f"check failed: {message}", file=sys.stderr)
    plain = [r for r in rounds if r["layers"] is None]
    if args.trace:
        traced = [r for r in rounds if r["layers"] is not None]
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        values["tracing.overhead_s"] = (statistics.median(r["job_s"] for r in traced)
                                        - statistics.median(r["job_s"] for r in plain))
    else:
        values = {name: statistics.median(r[name] for r in plain)
                  for name in ("setup_s", "job_s", "peak_rss_mb")}
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not any(r["errors"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
