"""Minor page faults, p50 time and peak memory of warm train steps, eval calls
and export cycles.

    PYTHONPATH=src python3 tools/warm_faults.py [mnist2 | net2 | export ...]

Counts the faults of this process (resource.getrusage) around each call,
after warm-up calls.  For a preset: first of train_batch, for mnist2 at
B=64 and net2 at B=16, then of evaluate on one eval batch of quantized
weights, for mnist2 at B=128 and net2 at B=32 (the benchmark's batches).
For export: of one quantize_weights -> pack_model -> unpack_model ->
cost_report cycle of net2's weights at max_k=3, with per-filter scales
that spread k_i over 0..3 as in the benchmark's export workload; a second
line gives the p50 time of each of the four phases within a cycle; a third
gives the p50 of pack_model, unpack_model, and op_counts with storage_bits
(cost_report less its shape check), called in turn, on the same model cut
to one weight per filter: their fixed cost, which follows the layer count
and not the weights.  With no
names, every probe runs.  The counts depend on what ran before in the
process (glibc's trim threshold follows the largest block freed so far),
so run one probe per process to read its own count.  Each line also gives
the process's peak resident set so far (ru_maxrss), because fewer faults
can cost a higher peak: memory kept across calls is not faulted in again.
Then one more call runs under tracemalloc, and the line ends with the peak
of the heap bytes it allocated above what was live before it (numpy reports
its buffers to tracemalloc; the train workspace is already allocated).
A train line adds the bytes of the network's train workspace, which warm
steps reuse, in all and by kind: layer caches, backward's two gradient
areas, skip slots, the conv patch area cols and the temporaries' area tmp.
"""

import functools
import resource
import statistics
import sys
import time
import tracemalloc

import numpy as np

from shiftnn import costmodel, packing
from shiftnn.nn import Network, get_preset
from shiftnn.nn.layers import Workspace
from shiftnn.quant import QuantizedLayer
from shiftnn.trainer import loop


def warm_calls(call, warm, calls, what):
    """Median minor faults and time of the calls call(i) after the first warm ones,
    then the tracemalloc peak of one more call, made after the counted ones so that
    tracing moves no count."""
    faults, times = [], []
    for i in range(warm + calls):
        f0, t0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()
        call(i)
        t1, f1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        if i >= warm:
            faults.append(f1 - f0)
            times.append(t1 - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    tracemalloc.start()
    try:
        call(warm + calls)
        traced_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return (f"{statistics.median(faults):.0f} minor faults per warm {what} (max {max(faults)}), "
            f"p50 {1e3 * statistics.median(times):.1f} ms, {calls} {what}s, "
            f"peak RSS {peak_mb:.1f} MB, traced peak of one more {what} {traced_mb:.1f} MB")


def area_kind(key):
    """What a workspace area holds, by its key (see Workspace)."""
    if key in Workspace.GRADS:
        return "gradient areas"
    if key.startswith(Workspace.SKIP.format("")):
        return "skip slots"
    return key if key in (Workspace.COLS, Workspace.TMP) else "layer caches"


def workspace_size(net):
    """The bytes of net's train workspace, in all and by kind, in MB as peak RSS is.

    Keeps no reference to an area: the next evaluate call drops them."""
    kinds = dict.fromkeys(["layer caches", "gradient areas", "skip slots", Workspace.COLS,
                           Workspace.TMP], 0.0)
    for key, area in net._workspace.areas().items():
        kinds[area_kind(key)] += area.nbytes / 2**20
    parts = ", ".join(f"{kind} {mb:.1f}" for kind, mb in kinds.items())
    return f"train workspace {sum(kinds.values()):.1f} MB ({parts})"


def probe(preset, batch, eval_batch, threshold, steps, warm=3):
    net = Network(get_preset(preset))
    settings = loop.TrainSettings(batch_size=batch, lambdas=(1e-4, 1e-3), threshold_init=threshold)
    ts = loop.init_train_state(net, net.init_params(0), net.init_state(), settings)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, batch) + tuple(net.config.input_shape)).astype(np.float32)
    y = rng.integers(0, net.config.classes, (2, batch))
    line = warm_calls(lambda i: loop.train_batch(ts, x[i % 2], y[i % 2]), warm, steps, "step")
    print(f"{preset} B={batch}: {line}, {workspace_size(net)}")

    qparams, _ = loop.quantize_weights(net, ts.params, ts.thresholds, settings)
    xe = rng.standard_normal((eval_batch,) + tuple(net.config.input_shape)).astype(np.float32)
    ye = rng.integers(0, net.config.classes, eval_batch)
    line = warm_calls(lambda i: loop.evaluate(net, qparams, ts.bn_state, xe, ye, eval_batch),
                      warm, steps, "evaluate call")
    print(f"{preset} eval B={eval_batch}: {line}")


EXPORT_PHASES = ("quantize_weights", "pack_model", "unpack_model", "cost_report")
FIXED_COST_CALLS = 200  # of each call on the cut model, after the warm-up calls


def probe_export(cycles, warm=3):
    max_k = 3
    net = Network(get_preset("net2"))
    params = net.init_params(0)
    rng = np.random.default_rng(0)
    for name in net.weight_names:  # log-uniform filter scales
        w = params[name]
        scale = np.exp(rng.uniform(-3.5, 0.7, w.shape[0])).astype(w.dtype)
        params[name] = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
    settings = loop.TrainSettings(max_k=max_k, lambdas=(0.0,) * max_k)
    thresholds = np.full((1, max_k), 0.1)

    phase_s = []  # per counted cycle, the seconds of each of EXPORT_PHASES

    def cycle(i):
        t = [time.perf_counter()]
        _, qinfo = loop.quantize_weights(net, params, thresholds, settings)
        t.append(time.perf_counter())
        stream = packing.pack_model([qinfo[n][0] for n in net.weight_names])
        t.append(time.perf_counter())
        unpacked = packing.unpack_model(stream)
        t.append(time.perf_counter())
        costmodel.cost_report(net, dict(zip(net.weight_names, unpacked)))
        t.append(time.perf_counter())
        if warm <= i < warm + cycles:
            phase_s.append(np.diff(t))

    print(f"net2 export max_k={max_k}: {warm_calls(cycle, warm, cycles, 'cycle')}")
    p50 = np.median(phase_s, axis=0)
    print("net2 export phases p50: "
          + ", ".join(f"{name} {1e3 * s:.2f} ms" for name, s in zip(EXPORT_PHASES, p50)))

    _, qinfo = loop.quantize_weights(net, params, thresholds, settings)
    cut = [QuantizedLayer((1,), q.rng, q.k_i, np.ascontiguousarray(q.codes[:, :1]))
           for q in (qinfo[name][0] for name in net.weight_names)]
    stream = packing.pack_model(cut)
    unpacked = packing.unpack_model(stream)
    k_map = {name: q.k_i for name, q in zip(net.weight_names, unpacked)}
    # cost_report rejects filters of another shape than the network's: time what it runs past that
    calls = {"pack_model": lambda: packing.pack_model(cut),
             "unpack_model": lambda: packing.unpack_model(stream),
             "op_counts + storage_bits": lambda: (costmodel.op_counts(net, k_map),
                                                  packing.storage_bits(unpacked))}
    call_s = {name: [] for name in calls}
    for i in range(warm + FIXED_COST_CALLS):
        for name, call in calls.items():
            t0 = time.perf_counter()
            call()
            if i >= warm:
                call_s[name].append(time.perf_counter() - t0)
    print("net2 export, one weight per filter, p50: "
          + ", ".join(f"{name} {1e3 * statistics.median(s):.3f} ms" for name, s in call_s.items()))


# name -> probe; a preset's arguments are its train batch, eval batch and threshold_init
PROBES = {
    "mnist2": functools.partial(probe, "mnist2", 64, 128, 1.0, steps=30),
    "net2": functools.partial(probe, "net2", 16, 32, 0.0, steps=10),
    "export": functools.partial(probe_export, cycles=30),
}

if __name__ == "__main__":
    names = sys.argv[1:] or list(PROBES)
    unknown = [name for name in names if name not in PROBES]
    if unknown:
        sys.exit(f"unknown probe {unknown[0]!r}; choose from {sorted(PROBES)}")
    for name in names:
        PROBES[name]()
