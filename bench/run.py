"""Benchmark entry point.

    python3 bench/run.py --workload train-net2 --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's src/ directory, never from an installed
copy.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  A fuller record, with the environment, sample counts and
the held-out loss, is written to bench/out/ next to this file, and a
traced run also writes its spans there.  Exits with 2 when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

_T0 = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
# One BLAS thread: never more than the machine's cores, and GEMM results
# that do not depend on how many threads the host happens to offer.
BLAS_THREADS = "1"


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import shiftnn from the checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "shiftnn", "__init__.py")):
        print(f"error: no shiftnn package under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, BENCH_DIR]
    import shiftnn

    if os.path.dirname(os.path.dirname(os.path.abspath(shiftnn.__file__))) != SRC:
        print(f"error: shiftnn imported from {shiftnn.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    import_program()
    import harness  # numpy, shiftnn and the workloads

    import_s = time.perf_counter() - _T0
    args = parse_args(argv, list(harness.WORKLOADS))
    env = harness.environment(ROOT, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = harness.run_workload(
        args.workload, args.seed, args.seconds, args.trace, import_s=import_s,
        trace_path=os.path.join(OUT_DIR, f"spans-{stem}.json") if args.trace else None,
    )
    if args.trace:
        unit_of = harness.PER_LAYER
    else:
        unit_of = {name: unit for name, (unit, _) in harness.END_TO_END.items()}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {result['rounds']} measured {result['measured_s']:.1f}s")
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(result["samples"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit_of[name]}")
    for phase, ms in result.get("phase_ms_p50", {}).items():
        print(f"  {phase + '_ms_p50':40s} {ms:14.6g} ms")
    if math.isfinite(result["final_loss"]):
        print(f"  {'final_loss':40s} {result['final_loss']:14.6g} nats")
    print(f"  {'error_rate':40s} {result['error_rate']:14.6g} ({result['failed']}/{result['attempted']})")
    for err in result["errors"]:
        print("error: " + err, file=sys.stderr)

    record = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace,
                  environment=env, units=unit_of)
    with open(os.path.join(OUT_DIR, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=float)

    metrics = {
        name: {"value": value, "unit": unit_of[name]}
        for name, value in result["metrics"].items()
        if math.isfinite(value)
    }
    print(json.dumps({
        "correct": bool(result["correct"]) and len(metrics) == len(unit_of),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
