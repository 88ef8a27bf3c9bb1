"""Measure one workload: set-up, timed rounds, checks and metrics.

End-to-end metrics come from untraced runs only.  A traced run
alternates untraced and traced main operations (train steps or export
cycles), so that the tracing overhead is measured on the same inputs in
the same process, and reports the per-layer metrics of
tracing.per_layer_metrics.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import statistics
import time
import traceback
from contextlib import contextmanager, nullcontext

import numpy as np

import tracing
import workloads
from tracing import Tracer, instrument, per_layer_metrics
from workloads import WORKLOADS, Record

# name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "items_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "eval_items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = tracing.PER_LAYER_UNITS

# Set-up is repeated this many times per run and its median reported.
SETUPS = 3


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root):
    """HEAD commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "seed": seed,
    }


def p50_ms(samples):
    return 1e3 * statistics.median(samples)


class AlternatingRecord(Record):
    """Record of a traced run: main operations alternate untraced and traced.

    Untraced operations land in main_s and traced ones in traced_main_s,
    so the overhead compares neighbouring operations of the same rounds.
    Everything outside the main operations stays traced.
    """

    def __init__(self, tracer):
        super().__init__()
        self.tracer = tracer
        self.traced_main_s = []

    @contextmanager
    def timed_main(self):
        traced = len(self.main_s) > len(self.traced_main_s)
        self.tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            yield
            (self.traced_main_s if traced else self.main_s).append(time.perf_counter() - t0)
        finally:
            self.tracer.enabled = True


def run_round(wl, ctx, rec):
    """One round; an exception fails the operation in flight and is reported."""
    try:
        wl.run_round(ctx, rec)
    except Exception:  # the loop keeps measuring; the failure is counted and shown
        rec.attempted += 1
        rec.failed += 1
        rec.errors.append(traceback.format_exc())


def end_to_end(rec, setup_s):
    return {
        "items_per_s": rec.main_items / sum(rec.main_s),
        "step_ms_p50": p50_ms(rec.main_s),
        "step_ms_p90": 1e3 * float(np.percentile(rec.main_s, 90)),
        # throughputs are work over total time: when call times are bimodal
        # (a loaded host), a median jumps between the modes and a mean does not
        "eval_items_per_s": rec.eval_items / sum(rec.eval_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name, seed, seconds, trace, import_s=0.0, workload=None, trace_path=None):
    """Run one workload for about `seconds` of measured rounds.

    Returns a dict with the contract fields (correct, attempted, failed,
    metrics as name -> value) plus the details behind them: sample
    counts, the final held-out loss, the end-state digest and errors.
    """
    wl = workload or WORKLOADS[name]
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        ctx = wl.setup(seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer() if trace else None
    rec = AlternatingRecord(tracer) if trace else Record()
    start = time.perf_counter()
    rounds = 0
    with instrument(tracer, tracing.targets(workloads)) if trace else nullcontext():
        while True:
            run_round(wl, ctx, rec)
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop before a round that would overrun the budget, once a
            # traced run has timed main operations on both sides
            done = not trace or (rec.main_s and rec.traced_main_s)
            if done and elapsed + elapsed / rounds > seconds:
                break

    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "error_rate": rec.failed / rec.attempted,
        "errors": rec.errors[:5],
        "rounds": rounds,
        "measured_s": elapsed,
        "final_loss": rec.final_loss,
        "digest": rec.digest,
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "samples": {"step": len(rec.main_s), "eval": len(rec.eval_s)},
    }
    if "k_hist" in ctx:
        result["k_hist"] = ctx["k_hist"]
    if rec.quantize_s:
        # export-net2's cycle phases, printed and recorded beside the metrics
        result["phase_ms_p50"] = {
            "quantize": p50_ms(rec.quantize_s),
            "pack": p50_ms(rec.pack_s),
            "unpack": p50_ms(rec.unpack_s),
        }
    needed = [rec.main_s, rec.eval_s] + ([rec.traced_main_s] if trace else [])
    if not all(needed):
        # a failure left some metric without samples: report it, measure nothing
        result["correct"] = False
        result["metrics"] = {}
        return result
    if trace:
        result["samples"]["traced_step"] = len(rec.traced_main_s)
        overhead = 100.0 * (statistics.median(rec.traced_main_s) / statistics.median(rec.main_s) - 1)
        result["metrics"] = per_layer_metrics(tracer.spans, wl.main_root, overhead)
        result["spans"] = len(tracer.spans)
        if trace_path:
            tracer.write(trace_path)
    else:
        result["metrics"] = end_to_end(rec, setup_s)
    return result
