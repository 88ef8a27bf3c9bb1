"""In-memory span tracer and per-layer aggregation for the traced run.

Spans are recorded from the benchmark's side of the API: `instrument`
swaps the module attributes and class methods that a workload reaches
for wrappers that open a span around the original call, and puts the
originals back on exit.  The package itself is not modified, so the
untraced rounds run exactly the code a user runs.

A span is [name, start, end, parent, info]; parent is the index of the
enclosing span (-1 for a root) and info is an optional per-call record
(MACs of a convolution, gate statistics of a quantizer call, stream
length of a pack).  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

from shiftnn import costmodel, packing, quant
from shiftnn.nn import layers as nn_layers
from shiftnn.nn import network as nn_network
from shiftnn.trainer import loop

# Root spans.  Every per-layer metric is scoped to the spans below one kind
# of root, so that counts such as round_pow2 calls per train step are exact.
TRAIN_STEP = "trainer.loop.train_batch"
EXPORT_CYCLE = "bench.export_cycle"
EVALUATE = "trainer.loop.evaluate"
ROOTS = (TRAIN_STEP, EXPORT_CYCLE, EVALUATE)

LAYER_CLASSES = ("Conv2D", "BatchNorm2D", "LeakyReLU", "MaxPool2D", "Dense", "Flatten")


class Tracer:
    """Collects spans in memory; `write` dumps them when the run ends.

    While `enabled` is false the wrappers call straight through and
    record nothing, which lets a traced run time untraced operations
    between traced ones.
    """

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._stack = []

    def wrap(self, fn, name, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start_s", "end_s", "parent"], "spans": [s[:4] for s in self.spans]},
                fh,
            )


def _conv_forward_macs(args, out):
    conv, y = args[0], out[0]
    return y.size * conv.in_channels * conv.kernel * conv.kernel


def _conv_backward_macs(args, out):
    # dW = dy^T cols and dcols = dy W: two GEMMs the size of the forward one
    conv, dy = args[0], args[1]
    return 2 * dy.size * conv.in_channels * conv.kernel * conv.kernel


def _gate_stats(args, out):
    qlayer, trace = out
    return bool(trace.fired.all()), int(qlayer.k_i.astype(np.int64).sum()), qlayer.num_filters


def _stream_length(args, out):
    return len(out)


def targets(export_module):
    """(owner, attribute, span name, info) for every traced call site.

    Functions are patched in the namespace their caller looks them up
    in: trainer.loop imports quantize_layer, cross_entropy, adam_step and
    the regularizer by name, while quant.ungated_residual_trace and
    packing.storage_bits reach quantize_layer/round_pow2/pack_model
    through their own module globals.
    """
    out = []
    for cls_name in LAYER_CLASSES:
        cls = getattr(nn_layers, cls_name)
        fwd_info = _conv_forward_macs if cls_name == "Conv2D" else None
        bwd_info = _conv_backward_macs if cls_name == "Conv2D" else None
        out.append((cls, "forward", f"nn.layers.{cls_name}.forward", fwd_info))
        out.append((cls, "backward", f"nn.layers.{cls_name}.backward", bwd_info))
    out += [
        (nn_network.Network, "forward", "nn.network.forward", None),
        (nn_network.Network, "backward", "nn.network.backward", None),
        (loop, "cross_entropy", "nn.losses.cross_entropy", None),
        (loop, "adam_step", "nn.optim.adam_step", None),
        (loop, "train_batch", TRAIN_STEP, None),
        (loop, "evaluate", EVALUATE, None),
        (loop, "quantize_weights", "trainer.loop.quantize_weights", None),
        (loop, "quantize_layer", "quant.quantize_layer", _gate_stats),
        (quant, "quantize_layer", "quant.quantize_layer", None),
        (quant, "round_pow2", "quant.round_pow2", None),
        (loop, "layer_reg_loss", "trainer.regularizer.loss", None),
        (loop, "layer_reg_grad", "trainer.regularizer.grad", None),
        (loop, "threshold_grad_from_trace", "trainer.gradients.threshold_grad", None),
        (packing, "pack_model", "packing.pack_model", _stream_length),
        (packing, "unpack_model", "packing.unpack_model", None),
        (costmodel, "cost_report", "costmodel.cost_report", None),
        (export_module, "export_cycle", EXPORT_CYCLE, None),
    ]
    return out


@contextmanager
def instrument(tracer, sites):
    """Install tracing wrappers on `sites` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, info in sites:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name, info))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class _Scope:
    """Self time, call count and infos per span name under one root kind."""

    def __init__(self):
        self.roots = 0
        self.root_time = 0.0
        self.self_time = {}
        self.calls = {}
        self.infos = {}

    def ms(self, name):
        return 1e3 * self.self_time.get(name, 0.0) / self.roots if self.roots else 0.0

    def per_root(self, name):
        return self.calls.get(name, 0) / self.roots if self.roots else 0.0


def scopes(spans):
    """Aggregate spans by the kind of root span they run under."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    self_time = list(dur)
    scope_of = [None] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= dur[i]
        # spans are appended in call order, so a parent precedes its children
        scope_of[i] = name if name in ROOTS else (scope_of[parent] if parent >= 0 else None)
    out = {root: _Scope() for root in ROOTS}
    for i, (name, _, _, _, info) in enumerate(spans):
        root = scope_of[i]
        if root is None:
            continue
        sc = out[root]
        if name == root:
            sc.roots += 1
            sc.root_time += dur[i]
        sc.self_time[name] = sc.self_time.get(name, 0.0) + self_time[i]
        sc.calls[name] = sc.calls.get(name, 0) + 1
        if info is not None:
            sc.infos.setdefault(name, []).append(info)
    return out


PER_LAYER_UNITS = {}
for _cls in LAYER_CLASSES:
    PER_LAYER_UNITS[f"nn.layers.{_cls}.forward_ms"] = "ms"
    PER_LAYER_UNITS[f"nn.layers.{_cls}.backward_ms"] = "ms"
PER_LAYER_UNITS.update(
    {
        "nn.layers.Conv2D.gflops": "GFLOP/s",
        "nn.network.forward_self_ms": "ms",
        "nn.network.backward_self_ms": "ms",
        "nn.losses.cross_entropy_ms": "ms",
        "nn.optim.adam_step_ms": "ms",
        "trainer.loop.train_batch_self_ms": "ms",
        "trainer.loop.quantize_weights_ms": "ms",
        "trainer.loop.evaluate_ms": "ms",
        "trainer.regularizer.loss_ms": "ms",
        "trainer.regularizer.grad_ms": "ms",
        "trainer.gradients.threshold_grad_ms": "ms",
        "quant.quantize_layer_ms": "ms",
        "quant.quantize_layer_calls": "count",
        "quant.round_pow2_ms": "ms",
        "quant.round_pow2_calls": "count",
        "quant.all_fired_share": "fraction",
        "quant.mean_k": "terms",
        "packing.pack_model_ms": "ms",
        "packing.unpack_model_ms": "ms",
        "packing.pack_model_calls": "count",
        "packing.stream_bytes": "bytes",
        "costmodel.cost_report_self_ms": "ms",
        "trace.overhead_pct": "%",
    }
)


def per_layer_metrics(spans, main_root, overhead_pct):
    """Per-layer metrics from a traced run.

    Layer, network, loss, optimizer, quantizer, regularizer and gradient
    metrics are self time (ms) or calls per main operation, counted under
    the workload's main root span: a train step, or an export cycle on
    the export workload.  packing/costmodel metrics are per export cycle
    and trainer.loop.evaluate_ms is the inclusive time of one evaluate
    call.  A layer a workload does not run reports 0.
    """
    sc = scopes(spans)
    main, export, ev = sc[main_root], sc[EXPORT_CYCLE], sc[EVALUATE]
    m = {}
    for cls_name in LAYER_CLASSES:
        m[f"nn.layers.{cls_name}.forward_ms"] = main.ms(f"nn.layers.{cls_name}.forward")
        m[f"nn.layers.{cls_name}.backward_ms"] = main.ms(f"nn.layers.{cls_name}.backward")
    conv = [f"nn.layers.Conv2D.{d}" for d in ("forward", "backward")]
    conv_time = sum(main.self_time.get(n, 0.0) for n in conv)
    conv_macs = sum(info for n in conv for info in main.infos.get(n, []))
    m["nn.layers.Conv2D.gflops"] = 2 * conv_macs / conv_time / 1e9 if conv_time else 0.0
    m["nn.network.forward_self_ms"] = main.ms("nn.network.forward")
    m["nn.network.backward_self_ms"] = main.ms("nn.network.backward")
    m["nn.losses.cross_entropy_ms"] = main.ms("nn.losses.cross_entropy")
    m["nn.optim.adam_step_ms"] = main.ms("nn.optim.adam_step")
    m["trainer.loop.train_batch_self_ms"] = main.ms(TRAIN_STEP)
    m["trainer.loop.quantize_weights_ms"] = main.ms("trainer.loop.quantize_weights")
    m["trainer.loop.evaluate_ms"] = 1e3 * ev.root_time / ev.roots if ev.roots else 0.0
    m["trainer.regularizer.loss_ms"] = main.ms("trainer.regularizer.loss")
    m["trainer.regularizer.grad_ms"] = main.ms("trainer.regularizer.grad")
    m["trainer.gradients.threshold_grad_ms"] = main.ms("trainer.gradients.threshold_grad")
    m["quant.quantize_layer_ms"] = main.ms("quant.quantize_layer")
    m["quant.quantize_layer_calls"] = main.per_root("quant.quantize_layer")
    m["quant.round_pow2_ms"] = main.ms("quant.round_pow2")
    m["quant.round_pow2_calls"] = main.per_root("quant.round_pow2")
    # only the thresholded calls from quantize_weights carry gate statistics;
    # the regularizer's ungated traces open every gate by construction
    gated = main.infos.get("quant.quantize_layer", [])
    m["quant.all_fired_share"] = sum(g[0] for g in gated) / len(gated) if gated else 0.0
    filters = sum(g[2] for g in gated)
    m["quant.mean_k"] = sum(g[1] for g in gated) / filters if filters else 0.0
    m["packing.pack_model_ms"] = export.ms("packing.pack_model")
    m["packing.unpack_model_ms"] = export.ms("packing.unpack_model")
    m["packing.pack_model_calls"] = export.per_root("packing.pack_model")
    lengths = export.infos.get("packing.pack_model", [])
    m["packing.stream_bytes"] = sum(lengths) / len(lengths) if lengths else 0.0
    m["costmodel.cost_report_self_ms"] = export.ms("costmodel.cost_report")
    m["trace.overhead_pct"] = overhead_pct
    assert set(m) == set(PER_LAYER_UNITS)
    return m
