"""Minor page faults and p50 time per warm train_batch step.

    PYTHONPATH=src python3 tools/warm_faults.py

Counts the faults of this process (resource.getrusage) around each step,
after warm-up steps, for mnist2 at B=64 and net2 at B=16.
"""

import resource
import statistics
import time

import numpy as np

from shiftnn.nn import Network, get_preset
from shiftnn.trainer import loop


def probe(preset, batch, threshold, steps, warm=3):
    net = Network(get_preset(preset))
    settings = loop.TrainSettings(batch_size=batch, lambdas=(1e-4, 1e-3), threshold_init=threshold)
    ts = loop.init_train_state(net, net.init_params(0), net.init_state(), settings)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, batch) + tuple(net.config.input_shape)).astype(np.float32)
    y = rng.integers(0, net.config.classes, (2, batch))
    faults, times = [], []
    for i in range(warm + steps):
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        loop.train_batch(ts, x[i % 2], y[i % 2])
        t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if i >= warm:
            faults.append(f1 - f0)
            times.append(t1 - t0)
    print(f"{preset} B={batch}: {statistics.median(faults):.0f} minor faults per warm step "
          f"(max {max(faults)}), p50 {1e3 * statistics.median(times):.1f} ms, {steps} steps")


if __name__ == "__main__":
    probe("mnist2", 64, 1.0, steps=30)
    probe("net2", 16, 0.0, steps=10)
