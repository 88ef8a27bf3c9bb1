"""The benchmark's workloads, built only on the public API of shiftnn.

Why these three (see README.md for the layer -> metric map):

* train-net2: train_batch on the net2 ResNet (20 convs, 3 projection
  skips) at B=16 with thresholds at 0, so every gate fires.  Conv
  forward/backward and the quantizer + regularizer + threshold gradient
  dominate the step: the home of conv hot-path and single-recursion work.
* train-mnist2: the same loop on the two-conv mnist2 net at B=64 with
  thresholds at 1.0, so later gates stay closed.  BatchNorm, LeakyReLU
  and MaxPool dominate; a conv or an "all gates fired" change should
  barely move it.
* export-net2: quantize_weights -> pack_model -> unpack_model ->
  cost_report on net2's 21 seeded weight tensors at max_k=3, with
  per-filter scales that make k_i span 0..3.  The network is never
  executed, so it bypasses every nn.layers change and carries the
  packing and stream-format work.

A train round starts from parameters freshly initialised from the seed,
runs a fixed number of steps on fixed batches, then evaluates the
quantized model on the held-out split.  Every round of a run must end
with the same parameter digest, and every export cycle with the same
stream.  Inputs are synthetic
class-prototype images plus noise, generated from the seed; the
program receives only the arrays.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from shiftnn import costmodel, packing
from shiftnn.nn import cross_entropy, get_preset
from shiftnn.nn.network import Network
from shiftnn.trainer import loop
from tracing import EXPORT_CYCLE, TRAIN_STEP

clock = time.perf_counter


@dataclass
class Record:
    """Timings, work counts and check outcomes of one side of a run."""

    main_s: list = field(default_factory=list)  # one train step or export cycle each
    main_items: int = 0  # training samples, or exported models
    eval_s: list = field(default_factory=list)
    eval_items: int = 0  # held-out images, or models priced by cost_report
    quantize_s: list = field(default_factory=list)  # export cycle phases
    pack_s: list = field(default_factory=list)
    unpack_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    final_loss: float = float("nan")
    digest: str = ""

    @contextmanager
    def timed_main(self):
        """Time one main operation (train step or export cycle) into main_s."""
        t0 = clock()
        yield
        self.main_s.append(clock() - t0)

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            self.errors.append(what)


def prototype_images(seed, shape, classes, n_train, n_eval, noise=1.0):
    """Class-prototype images plus Gaussian noise: (x_train, y_train, x_eval, y_eval)."""
    rng = np.random.default_rng([seed, 0x5EED])
    protos = rng.standard_normal((classes,) + tuple(shape))

    def draw(n):
        y = rng.integers(0, classes, n)
        x = protos[y] + noise * rng.standard_normal((n,) + tuple(shape))
        return x.astype(np.float32), y

    x_train, y_train = draw(n_train)
    x_eval, y_eval = draw(n_eval)
    return x_train, y_train, x_eval, y_eval


def digest(*arrays_or_dicts):
    h = hashlib.sha256()
    for item in arrays_or_dicts:
        entries = sorted(item.items()) if isinstance(item, dict) else [("", item)]
        for name, arr in entries:
            h.update(name.encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def export_cycle(net, params, thresholds, settings, rec):
    """quantize_weights -> pack_model -> unpack_model -> cost_report, timed per phase.

    Returns (qlayers, stream, unpacked, report, cost_report seconds); the
    caller checks them.
    """
    t0 = clock()
    _, qinfo = loop.quantize_weights(net, params, thresholds, settings)
    t1 = clock()
    qlayers = [qinfo[name][0] for name in net.weight_names]
    stream = packing.pack_model(qlayers)
    t2 = clock()
    unpacked = packing.unpack_model(stream)
    t3 = clock()
    report = costmodel.cost_report(net, dict(zip(net.weight_names, unpacked)))
    t4 = clock()
    rec.quantize_s.append(t1 - t0)
    rec.pack_s.append(t2 - t1)
    rec.unpack_s.append(t3 - t2)
    return qlayers, stream, unpacked, report, t4 - t3


def check_export(rec, qlayers, stream, unpacked, report):
    rec.check(
        len(unpacked) == len(qlayers) and all(a == b for a, b in zip(unpacked, qlayers)),
        "unpack_model(pack_model(q)) != q",
    )
    rec.check(
        report.storage_bits == 8 * (len(stream) - packing.header_length(unpacked)),
        "cost_report storage_bits != 8 * (stream length - header length)",
    )


class TrainWorkload:
    """Fixed-length training rounds, then held-out evaluation."""

    main_root = TRAIN_STEP

    def __init__(self, preset, batch, steps, eval_images, eval_batch, threshold_init):
        self.preset = preset
        self.batch = batch
        self.steps = steps
        self.eval_images = eval_images
        self.eval_batch = eval_batch
        self.threshold_init = threshold_init

    def settings(self, seed):
        return loop.TrainSettings(
            batch_size=self.batch,
            max_k=2,
            lambdas=(1e-4, 1e-3),
            threshold_init=self.threshold_init,
            mode="flex",
            seed=seed,
        )

    def setup(self, seed):
        """Inputs, network and train state, then one warm-up step and eval batch."""
        config = get_preset(self.preset)
        x, y, xe, ye = prototype_images(
            seed, config.input_shape, config.classes,
            self.steps * self.batch, self.eval_images,
        )
        ctx = {
            "seed": seed,
            "net": Network(config),
            "settings": self.settings(seed),
            "batches": [
                (x[i : i + self.batch], y[i : i + self.batch])
                for i in range(0, len(x), self.batch)
            ],
            "eval": (xe, ye),
            "reference": None,
        }
        ts = self.fresh_state(ctx)
        loop.train_batch(ts, *ctx["batches"][0])
        qparams, _ = loop.quantize_weights(ctx["net"], ts.params, ts.thresholds, ts.settings)
        loop.evaluate(ctx["net"], qparams, ts.bn_state, xe[: self.eval_batch], ye[: self.eval_batch],
                      self.eval_batch)
        return ctx

    def fresh_state(self, ctx):
        net = ctx["net"]
        return loop.init_train_state(
            net, net.init_params(ctx["seed"]), net.init_state(), ctx["settings"]
        )

    def run_round(self, ctx, rec):
        net = ctx["net"]
        ts = self.fresh_state(ctx)
        for xb, yb in ctx["batches"]:
            rec.attempted += 1
            with rec.timed_main():
                _, _, total, _ = loop.train_batch(ts, xb, yb)
            rec.main_items += len(xb)
            rec.check(math.isfinite(total), f"non-finite training loss {total}")
        state_digest = digest(ts.params, ts.bn_state, ts.thresholds)
        if ctx["reference"] is None:
            ctx["reference"] = state_digest
        rec.check(state_digest == ctx["reference"], "same-seed rounds ended with different state")
        rec.digest = state_digest

        qparams, _ = loop.quantize_weights(net, ts.params, ts.thresholds, ts.settings)
        xe, ye = ctx["eval"]
        for lo in range(0, len(xe), self.eval_batch):
            xb, yb = xe[lo : lo + self.eval_batch], ye[lo : lo + self.eval_batch]
            rec.attempted += 1
            t0 = clock()
            acc = loop.evaluate(net, qparams, ts.bn_state, xb, yb, self.eval_batch)
            rec.eval_s.append(clock() - t0)
            rec.eval_items += len(xb)
            rec.check(0.0 <= acc <= 1.0, f"accuracy {acc} outside [0, 1]")
        # held-out loss on one train-sized batch: the logits must be finite
        logits, _ = net.forward(xe[: self.batch], qparams, ts.bn_state, train=False)
        rec.check(bool(np.isfinite(logits).all()), "non-finite held-out logits")
        rec.final_loss, _ = cross_entropy(logits, ye[: self.batch])
        rec.check(math.isfinite(rec.final_loss), "non-finite held-out loss")


class ExportWorkload:
    """Repeated export cycles of one fixed quantized model; no network execution."""

    main_root = EXPORT_CYCLE
    max_k = 3
    # log-uniform per-filter scales spread the filter norms over enough
    # octaves that one threshold row gives every k_i in 0..max_k
    scale_span = (-3.5, 0.7)
    threshold = 0.1

    def __init__(self, preset):
        self.preset = preset

    def setup(self, seed):
        """Seeded weights with per-filter scales, thresholds, one warm-up cycle."""
        net = Network(get_preset(self.preset))
        params = net.init_params(seed)
        rng = np.random.default_rng([seed, 0xE4])
        for name in net.weight_names:
            w = params[name]
            scale = np.exp(rng.uniform(*self.scale_span, size=w.shape[0]))
            params[name] = (w * scale.reshape((-1,) + (1,) * (w.ndim - 1))).astype(w.dtype)
        settings = loop.TrainSettings(max_k=self.max_k, lambdas=(0.0,) * self.max_k)
        thresholds = np.full((1, self.max_k), self.threshold)
        ctx = {"net": net, "params": params, "thresholds": thresholds, "settings": settings,
               "reference": None}
        warmup = Record()
        qlayers, *_ = export_cycle(net, params, thresholds, settings, warmup)
        k_all = np.concatenate([q.k_i for q in qlayers])
        ctx["k_hist"] = np.bincount(k_all, minlength=self.max_k + 1).tolist()
        return ctx

    def run_round(self, ctx, rec):
        rec.attempted += 1
        with rec.timed_main():
            qlayers, stream, unpacked, report, cost_s = export_cycle(
                ctx["net"], ctx["params"], ctx["thresholds"], ctx["settings"], rec
            )
        rec.main_items += 1
        rec.eval_s.append(cost_s)
        rec.eval_items += 1
        check_export(rec, qlayers, stream, unpacked, report)
        stream_digest = digest(np.frombuffer(stream, dtype=np.uint8))
        if ctx["reference"] is None:
            ctx["reference"] = stream_digest
            rec.check(min(ctx["k_hist"]) > 0, f"k_i histogram {ctx['k_hist']} misses a count")
        rec.check(stream_digest == ctx["reference"], "same-seed cycles packed different streams")
        rec.digest = stream_digest


WORKLOADS = {
    "train-net2": TrainWorkload("net2", batch=16, steps=8, eval_images=256, eval_batch=32,
                                threshold_init=0.0),
    "train-mnist2": TrainWorkload("mnist2", batch=64, steps=20, eval_images=512, eval_batch=128,
                                  threshold_init=1.0),
    "export-net2": ExportWorkload("net2"),
}
