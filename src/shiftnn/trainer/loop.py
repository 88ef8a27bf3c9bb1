"""Training loop: quantized forward, total loss, STE/threshold updates.

Per mini-batch: weights are hard-quantized from the full-precision
master copy given the current thresholds, the forward/backward pass runs
against the quantized weights, and the resulting gradients update the
master weights (straight-through), the biases, and the thresholds (via
the relaxed-gate gradient).  The shuffling generator is consumed exactly
once per epoch (one permutation), which keeps runs reproducible.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError, NumericError
from ..nn.losses import cross_entropy
from ..nn.network import Network
from ..nn.optim import AdamState, adam_step
from ..packing import MAX_K
from ..quant import ExponentRange, quantize_layer
from .gradients import threshold_grad_from_trace
from .regularizer import check_lambdas, layer_reg_grad, layer_reg_loss

MODES = ("flex", "fixed", "float")


@dataclass
class TrainSettings:
    epochs: int = 10
    batch_size: int = 128
    lr: float = 1e-3
    lr_decay: float = 0.1
    lr_milestones: tuple = (0.5, 0.75)
    max_k: int = 2
    lambdas: tuple = (0.0, 3e-5)
    tau: float = 1.0
    clip_norm: float = 5.0
    seed: int = 0
    mode: str = "flex"
    fixed_k: int | None = None
    threshold_init: float = 0.0
    per_layer_thresholds: bool = False
    code_bits: int = 4
    dump_dir: str | None = None

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 <= self.max_k <= MAX_K:
            raise ConfigError(
                f"max_k must be in [0, {MAX_K}] to fit the packed stream, got {self.max_k}"
            )
        if self.mode != "float":
            check_lambdas(self.lambdas, self.max_k)
        if self.mode == "fixed":
            if self.fixed_k is None or not 0 <= self.fixed_k <= self.max_k:
                raise ConfigError(f"fixed mode needs fixed_k in [0, {self.max_k}]")
        ExponentRange.widest(0, self.code_bits)  # raises ConfigError on a bad code width
        if not 0 < self.tau < np.inf:
            # tau = 0 makes every threshold gradient NaN, which prunes every filter
            raise ConfigError(f"tau must be positive and finite, got {self.tau}")
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise ConfigError("epochs, batch_size and lr must be positive")
        return self


@dataclass
class TrainState:
    net: Network
    params: dict  # full-precision master copy
    bn_state: dict
    thresholds: np.ndarray  # (groups, max_k) float64
    settings: TrainSettings
    adam_w: AdamState
    adam_b: AdamState
    adam_t: AdamState
    rng: np.random.Generator
    epoch: int = 0
    step: int = 0

    def threshold_group(self, weight_name: str) -> int:
        if not self.settings.per_layer_thresholds:
            return 0
        return self.net.weight_names.index(weight_name)

    @property
    def trains_thresholds(self) -> bool:
        return self.settings.mode == "flex"


@dataclass
class EpochMetrics:
    epoch: int
    loss_ce: float
    loss_reg: float
    loss_total: float
    train_acc: float
    test_acc: float
    mean_k: float
    k_hist: list
    wall_time: float

    @staticmethod
    def csv_header(max_k: int) -> str:
        buckets = ",".join(f"k{j}" for j in range(max_k + 1))
        return (
            "epoch,loss_ce,loss_reg,loss_total,train_acc,test_acc,mean_k,"
            + buckets
            + ",wall_time"
        )

    def csv_row(self) -> str:
        cells = [
            str(self.epoch),
            repr(self.loss_ce),
            repr(self.loss_reg),
            repr(self.loss_total),
            repr(self.train_acc),
            repr(self.test_acc),
            repr(self.mean_k),
        ]
        cells += [str(c) for c in self.k_hist]
        cells.append(repr(self.wall_time))
        return ",".join(cells)


def initial_thresholds(net: Network, settings: TrainSettings) -> np.ndarray:
    groups = len(net.weight_names) if settings.per_layer_thresholds else 1
    k = settings.max_k
    if settings.mode == "fixed":
        row = np.array(
            [-np.inf] * settings.fixed_k + [np.inf] * (k - settings.fixed_k), dtype=np.float64
        )
    else:
        row = np.full(k, float(settings.threshold_init), dtype=np.float64)
    return np.tile(row, (groups, 1))


def init_train_state(net, params, bn_state, settings: TrainSettings) -> TrainState:
    settings.validate()
    net.check_params(params)
    weights = {k: params[k] for k in net.weight_names}
    biases = {k: params[k] for k in net.bias_names}
    thresholds = initial_thresholds(net, settings)
    return TrainState(
        net=net,
        params=params,
        bn_state=bn_state,
        thresholds=thresholds,
        settings=settings,
        adam_w=AdamState(weights),
        adam_b=AdamState(biases),
        adam_t=AdamState({"t": thresholds}),
        rng=np.random.default_rng(settings.seed),
    )


def quantize_weights(net: Network, params: dict, thresholds: np.ndarray, settings: TrainSettings):
    """Quantize every conv/dense weight tensor against the thresholds.

    Returns (qparams, qinfo) where qparams swaps each weight for its
    dequantized value and qinfo maps weight name -> (qlayer, trace, rng).
    Dense weights are grouped per output row, convs per output channel.
    """
    qparams = dict(params)
    qinfo = {}
    for g, name in enumerate(net.weight_names):
        w = params[name]
        rng = ExponentRange.for_weights(w, settings.code_bits)
        t = thresholds[g if settings.per_layer_thresholds else 0]
        qlayer, trace = quantize_layer(w, t, settings.max_k, rng)
        qparams[name] = qlayer.dequantize(dtype=w.dtype).reshape(w.shape)
        qinfo[name] = (qlayer, trace, rng)
    return qparams, qinfo


def k_statistics(qinfo: dict, max_k: int):
    """Mean k_i and per-count histogram over every filter of the model."""
    counts = np.zeros(max_k + 1, dtype=np.int64)
    total = 0
    ks = 0
    for qlayer, _, _ in qinfo.values():
        hist = np.bincount(qlayer.k_i, minlength=max_k + 1)
        counts += hist[: max_k + 1]
        total += qlayer.num_filters
        ks += int(qlayer.k_i.astype(np.int64).sum())
    mean = ks / total if total else 0.0
    return mean, counts.tolist()


def lr_at(settings: TrainSettings, epoch: int) -> float:
    lr = settings.lr
    for frac in settings.lr_milestones:
        if epoch >= int(frac * settings.epochs):
            lr *= settings.lr_decay
    return lr


def _dump_state(ts: TrainState, reason: str) -> NumericError:
    """Save the master weights, thresholds, step and reason; return the error to raise."""
    dump_dir = ts.settings.dump_dir or tempfile.gettempdir()
    path = os.path.join(dump_dir, f"shiftnn_dump_step{ts.step}.npz")
    payload = {k: v for k, v in ts.params.items()}
    payload["__thresholds"] = ts.thresholds
    payload["__step"] = np.array(ts.step)
    payload["__reason"] = np.array(reason)
    np.savez(path, **payload)
    return NumericError(f"{reason} at step {ts.step}; state dumped to {path}")


def train_batch(ts: TrainState, xb, yb, observer=None):
    """One optimization step; returns (ce, reg, total, correct)."""
    s = ts.settings
    net = ts.net

    try:
        if s.mode == "float":
            qparams, qinfo = ts.params, {}
        else:
            qparams, qinfo = quantize_weights(net, ts.params, ts.thresholds, s)
        if observer is not None:
            observer(ts.step, qparams, qinfo)
        logits, cache = net.forward(xb, qparams, ts.bn_state, train=True)
    except NumericError as exc:
        raise _dump_state(ts, str(exc)) from exc
    ce, dlogits = cross_entropy(logits, yb)

    reg = 0.0
    reg_grads = {}
    if s.mode != "float" and any(l != 0.0 for l in s.lambdas):
        for name in net.weight_names:
            rng = qinfo[name][2]
            w = ts.params[name]
            reg += layer_reg_loss(w.reshape(w.shape[0], -1), s.lambdas, rng)
            reg_grads[name] = layer_reg_grad(
                w.reshape(w.shape[0], -1), s.lambdas, rng
            ).reshape(w.shape)
    total = ce + reg
    if not np.isfinite(total):
        raise _dump_state(ts, f"non-finite loss (ce={ce}, reg={reg})")

    _, grads = net.backward(cache, dlogits, qparams)

    wgrads = {}
    for name in net.weight_names:
        g = grads[name]  # dL/dw^q applied to the master copy (straight-through)
        if name in reg_grads:
            g = g + reg_grads[name]
        wgrads[name] = g
    bgrads = {name: grads[name] for name in net.bias_names}

    tgrad = np.zeros_like(ts.thresholds)
    if s.mode != "float" and ts.trains_thresholds:
        for name in net.weight_names:
            qlayer, trace, rng = qinfo[name]
            upstream = grads[name].reshape(grads[name].shape[0], -1)
            g = ts.threshold_group(name)
            tgrad[g] += threshold_grad_from_trace(trace, upstream, ts.thresholds[g], s.tau)

    if s.clip_norm and s.clip_norm > 0:
        sq = 0.0
        for g in wgrads.values():
            sq += float(np.einsum("i,i->", g.ravel().astype(np.float64), g.ravel().astype(np.float64)))
        for g in bgrads.values():
            sq += float(np.einsum("i,i->", g.ravel().astype(np.float64), g.ravel().astype(np.float64)))
        sq += float((tgrad * tgrad).sum())
        norm = np.sqrt(sq)
        if norm > s.clip_norm:
            scale = s.clip_norm / norm
            wgrads = {k: g * np.asarray(scale, dtype=g.dtype) for k, g in wgrads.items()}
            bgrads = {k: g * np.asarray(scale, dtype=g.dtype) for k, g in bgrads.items()}
            tgrad = tgrad * scale

    lr = lr_at(ts.settings, ts.epoch)
    weights = {k: ts.params[k] for k in net.weight_names}
    biases = {k: ts.params[k] for k in net.bias_names}
    adam_step(weights, wgrads, ts.adam_w, lr)
    adam_step(biases, bgrads, ts.adam_b, lr)
    if ts.trains_thresholds:
        adam_step({"t": ts.thresholds}, {"t": tgrad}, ts.adam_t, lr)

    correct = int((logits.argmax(axis=1) == yb).sum())
    ts.step += 1
    return ce, reg, total, correct


def train_epoch(ts: TrainState, train_x, train_y, test_x=None, test_y=None, observer=None):
    """One full pass; returns EpochMetrics (test fields NaN when no test set)."""
    s = ts.settings
    start = time.perf_counter()
    order = ts.rng.permutation(len(train_x))
    sum_ce = sum_reg = sum_total = 0.0
    correct = 0
    for lo in range(0, len(order), s.batch_size):
        idx = order[lo : lo + s.batch_size]
        ce, reg, total, ok = train_batch(ts, train_x[idx], train_y[idx], observer=observer)
        sum_ce += ce * len(idx)
        sum_reg += reg * len(idx)
        sum_total += total * len(idx)
        correct += ok
    n = len(order)
    ts.epoch += 1

    if s.mode == "float":
        eval_params, qinfo = ts.params, {}
        mean_k, hist = float("nan"), []
    else:
        eval_params, qinfo = quantize_weights(ts.net, ts.params, ts.thresholds, s)
        mean_k, hist = k_statistics(qinfo, s.max_k)
    if test_x is not None:
        test_acc = evaluate(ts.net, eval_params, ts.bn_state, test_x, test_y, s.batch_size)
    else:
        test_acc = float("nan")
    wall = time.perf_counter() - start
    return EpochMetrics(
        epoch=ts.epoch,
        loss_ce=sum_ce / n,
        loss_reg=sum_reg / n,
        loss_total=sum_total / n,
        train_acc=correct / n,
        test_acc=test_acc,
        mean_k=mean_k,
        k_hist=hist if hist else [0] * (s.max_k + 1),
        wall_time=wall,
    )


def evaluate(net: Network, params, bn_state, x, y, batch_size=256) -> float:
    """Top-1 accuracy in eval mode (running batch-norm statistics)."""
    if len(x) == 0:
        raise DataError("evaluate needs at least one sample")
    correct = 0
    for lo in range(0, len(x), batch_size):
        logits, _ = net.forward(x[lo : lo + batch_size], params, bn_state, train=False)
        correct += int((logits.argmax(axis=1) == y[lo : lo + batch_size]).sum())
    return correct / len(x)


def train_model(ts: TrainState, train_x, train_y, test_x=None, test_y=None, observer=None):
    """Run settings.epochs epochs; returns the list of EpochMetrics."""
    history = []
    for _ in range(ts.settings.epochs):
        history.append(train_epoch(ts, train_x, train_y, test_x, test_y, observer=observer))
    return history


def write_metrics_csv(path, history, max_k):
    with open(path, "w") as fh:
        fh.write(EpochMetrics.csv_header(max_k) + "\n")
        for m in history:
            fh.write(m.csv_row() + "\n")
