"""Minor page faults, p50 time and peak memory of warm train steps and eval calls.

    PYTHONPATH=src python3 tools/warm_faults.py [PRESET ...]

Counts the faults of this process (resource.getrusage) around each call,
after warm-up calls: first of train_batch, for mnist2 at B=64 and net2 at
B=16, then of evaluate on one eval batch of quantized weights, for mnist2
at B=128 and net2 at B=32 (the benchmark's batches), or for the presets
named.  The counts depend on what ran before in the process (glibc's trim
threshold follows the largest block freed so far), so probe one preset
per process to read its own count.  Each line also gives the process's
peak resident set so far (ru_maxrss), because fewer faults can cost a
higher peak: memory kept across calls is not faulted in again.
"""

import resource
import statistics
import sys
import time

import numpy as np

from shiftnn.nn import Network, get_preset
from shiftnn.trainer import loop


def warm_calls(call, warm, calls, what):
    """Median minor faults and time of the calls call(i) after the first warm ones."""
    faults, times = [], []
    for i in range(warm + calls):
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        call(i)
        t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if i >= warm:
            faults.append(f1 - f0)
            times.append(t1 - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    return (f"{statistics.median(faults):.0f} minor faults per warm {what} (max {max(faults)}), "
            f"p50 {1e3 * statistics.median(times):.1f} ms, {calls} {what}s, "
            f"peak RSS {peak_mb:.1f} MB")


def probe(preset, batch, eval_batch, threshold, steps, warm=3):
    net = Network(get_preset(preset))
    settings = loop.TrainSettings(batch_size=batch, lambdas=(1e-4, 1e-3), threshold_init=threshold)
    ts = loop.init_train_state(net, net.init_params(0), net.init_state(), settings)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, batch) + tuple(net.config.input_shape)).astype(np.float32)
    y = rng.integers(0, net.config.classes, (2, batch))
    line = warm_calls(lambda i: loop.train_batch(ts, x[i % 2], y[i % 2]), warm, steps, "step")
    print(f"{preset} B={batch}: {line}")

    qparams, _ = loop.quantize_weights(net, ts.params, ts.thresholds, settings)
    xe = rng.standard_normal((eval_batch,) + tuple(net.config.input_shape)).astype(np.float32)
    ye = rng.integers(0, net.config.classes, eval_batch)
    line = warm_calls(lambda i: loop.evaluate(net, qparams, ts.bn_state, xe, ye, eval_batch),
                      warm, steps, "evaluate call")
    print(f"{preset} eval B={eval_batch}: {line}")


# preset -> (train batch, eval batch, threshold_init, warm calls timed)
PROBES = {"mnist2": (64, 128, 1.0, 30), "net2": (16, 32, 0.0, 10)}

if __name__ == "__main__":
    names = sys.argv[1:] or list(PROBES)
    unknown = [name for name in names if name not in PROBES]
    if unknown:
        sys.exit(f"unknown preset {unknown[0]!r}; choose from {sorted(PROBES)}")
    for name in names:
        batch, eval_batch, threshold, steps = PROBES[name]
        probe(name, batch, eval_batch, threshold, steps=steps)
