"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --workloads train-net2 export-net2 --seeds 5
    python3 bench/collect.py --seeds 10 --out bench/baseline.json

Runs bench/run.py once per (workload, seed), one process at a time, and
reports for every metric the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, as
statistics.quantiles(values, n=4) gives them).  End-to-end spreads are
compared with a third of their bound in BENCHMARK.json; setup_s is
exempt from the spread rule.  --trace also makes one traced run per
workload and keeps its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH_DIR, "out", f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        record = json.load(fh)
    return line, record


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds, from --first-seed")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true", help="add one traced run per workload")
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for wl in args.workloads:
        per_metric, failed, attempted, env, extras = {}, 0, 0, None, []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            line, record = run_once(wl, seed, args.seconds, 0)
            env = record["environment"]
            failed += line["failed"]
            attempted += line["attempted"]
            ok &= line["correct"]
            for name, m in line["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            loss = record["final_loss"]  # NaN on export-net2, which has no loss
            extras.append({"seed": seed, "final_loss": loss if math.isfinite(loss) else None,
                           "digest": record["digest"], "samples": record["samples"]})
            print(f"{wl} seed {seed}: correct={line['correct']} failed={line['failed']}",
                  flush=True)
        entry = {
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted if attempted else 0.0,
            "end_to_end": {k: summarise(v) for k, v in per_metric.items()},
            "runs": extras,
            "environment": {k: v for k, v in env.items() if k != "seed"},
        }
        print(f"\n{wl}: {args.seeds} seeds, error_rate {entry['error_rate']}")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            flag = ""
            if name != "setup_s" and bound is not None and s["spread"] > bound / 3:
                flag = "  spread above bound/3"
                ok = ok and s["spread"] <= bound
            print(f"  {name:20s} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                  f"{s['spread']:8.3f} {bound:6.2f}{flag}")
        if args.trace:
            line, _ = run_once(wl, args.first_seed, args.seconds, 1)
            ok &= line["correct"]
            entry["per_layer"] = {k: m["value"] for k, m in line["metrics"].items()}
            print(f"  traced run: {len(entry['per_layer'])} per-layer metrics, "
                  f"trace.overhead_pct {entry['per_layer']['trace.overhead_pct']:.2f}")
        summary["workloads"][wl] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
