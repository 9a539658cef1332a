"""One round of a workload in a fresh process; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --t0 T [--trace]

Run from the root of a checkout.  `--t0` is the `time.monotonic()` reading
of the parent just before it started this process; set-up time runs from
there to the point where resdet is imported and the workload's loops are
built.  The parent has already run `workloads.prepare` for this round.
The job follows, then the peak resident memory is read, and only then are
the outputs checked (the checks import scipy).  With `--trace`
the public functions of resdet are wrapped before the loops are built and
the per-layer figures are added to the output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    setup, job, check = workloads.WORKLOADS[args.workload]

    import resdet

    if not Path(resdet.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"resdet imported from {resdet.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    state = setup(args.seed, workloads.out_dir(args.workload))
    ready = time.monotonic()
    result = job(state)
    job_s = time.monotonic() - ready
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    attempted, failures, errors = check(state, result)
    print(json.dumps({
        "setup_s": ready - args.t0,
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "layers": tracer.metrics() if tracer is not None else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
