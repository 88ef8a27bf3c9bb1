"""Training loop: quantized forward, total loss, STE/threshold updates.

Per mini-batch: weights are hard-quantized from the full-precision
master copy given the current thresholds, the forward/backward pass runs
against the quantized weights, and the resulting gradients update the
master weights (straight-through), the biases, and the thresholds (via
the relaxed-gate gradient); float mode steps on the master weights.  The
shuffling generator is consumed exactly once per epoch (one permutation),
which keeps runs reproducible.
"""

from __future__ import annotations

import numbers
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
from .gradients import TAU, threshold_grad_from_trace
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
    clip_norm: float = 5.0
    seed: int = 0
    mode: str = "flex"
    fixed_k: int | None = None
    threshold_init: float = 0.0
    per_layer_thresholds: bool = False
    dump_dir: str | None = None

    def validate(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        for what, value, least in (("epochs", self.epochs, 1), ("batch_size", self.batch_size, 1),
                                   ("seed", self.seed, 0), ("max_k", self.max_k, 0)):
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
        if self.max_k > MAX_K:
            raise ConfigError(f"max_k above {MAX_K} does not fit the packed stream: {self.max_k}")
        lam = self.lambdas  # train_batch iterates it in every mode
        flat = isinstance(lam, (tuple, list)) or isinstance(lam, np.ndarray) and lam.ndim == 1
        if not (flat and all(isinstance(l, numbers.Real) for l in lam)):
            raise ConfigError(f"lambdas must be a one-dimensional sequence of numbers, got {lam!r}")
        if self.mode != "float":
            check_lambdas(lam, self.max_k)
        if not isinstance(self.per_layer_thresholds, (bool, np.bool_)):  # a truthy "no" is not False
            raise ConfigError(f"per_layer_thresholds must be a bool, got {self.per_layer_thresholds!r}")
        if self.mode == "fixed" and not (isinstance(self.fixed_k, numbers.Integral)
                                         and 0 <= self.fixed_k <= self.max_k):
            raise ConfigError(f"fixed mode needs an integer fixed_k in [0, {self.max_k}]")
        if self.mode != "fixed" and self.fixed_k is not None:  # it would be ignored
            raise ConfigError(f"fixed_k is read in fixed mode only, got {self.fixed_k!r}")
        # a NaN threshold_init prunes every filter at once
        for what, value, low in (("lr", self.lr, 0),
                                 ("lr_decay", self.lr_decay, 0),
                                 ("threshold_init", self.threshold_init, -np.inf)):
            if not (isinstance(value, numbers.Real) and low < value < np.inf):
                raise ConfigError(f"{what} must lie in ({low}, inf), got {value!r}")
        # a zero lr_decay and a NaN milestone validated, then raised bare ValueErrors mid-run
        ms = self.lr_milestones
        if not (isinstance(ms, (tuple, list))
                and all(isinstance(f, numbers.Real) and 0 <= f <= 1 for f in ms)):
            raise ConfigError(f"lr_milestones must be a sequence of numbers in [0, 1], got {ms!r}")
        # a rate decayed to 0 or inf failed mid-run; the schedule is monotone: check its ends
        if not all(0 < lr_at(self, e) < np.inf for e in (0, self.epochs - 1)):
            raise ConfigError(f"lr_decay {self.lr_decay!r} takes the learning rate out of (0, inf)")
        dump = self.dump_dir  # a missing directory turned NumericErrors into FileNotFoundError
        if not (dump is None or isinstance(dump, (str, os.PathLike)) and os.path.isdir(dump)):
            raise ConfigError(f"dump_dir must be None or an existing directory, got {dump!r}")
        clip = self.clip_norm  # None, and only None, turns clipping off
        if not (clip is None or isinstance(clip, numbers.Real) and 0 < clip < np.inf):
            raise ConfigError(f"clip_norm must be None or lie in (0, inf), got {clip!r}")
        return self


@dataclass
class TrainState:
    net: Network
    params: dict  # full-precision master copy
    bn_state: dict
    thresholds: np.ndarray  # (groups, max_k) float64
    settings: TrainSettings
    adam: AdamState  # weights and biases, and in flex mode "t", the thresholds
    rng: np.random.Generator
    epoch: int = 0
    step: int = 0


@dataclass
class EpochMetrics:
    epoch: int
    loss_ce: float
    loss_reg: float
    train_acc: float
    test_acc: float
    mean_k: float
    k_hist: list
    wall_time: float


def _threshold_row(settings: TrainSettings, g: int) -> int:
    """The thresholds row of weight g of net.weight_names: its own, or the one shared row."""
    return g if settings.per_layer_thresholds else 0


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
    thresholds = initial_thresholds(net, settings)
    trained = {k: params[k] for k in net.param_names}
    return TrainState(
        net=net,
        params=params,
        bn_state=bn_state,
        thresholds=thresholds,
        settings=settings,
        adam=AdamState({**trained, "t": thresholds} if settings.mode == "flex" else trained),
        rng=np.random.default_rng(settings.seed),
    )


def quantize_weights(net: Network, params: dict, thresholds: np.ndarray, settings: TrainSettings):
    """Quantize every conv/dense weight tensor against the thresholds.

    Returns (qparams, qinfo): qparams swaps each weight for its trace's
    quantized weight w - r_k, and qinfo maps weight name -> (qlayer, trace).
    Dense weights are grouped per output row, convs per output channel.
    A NumericError names the weight tensor that raised it.
    """
    qparams = dict(params)
    qinfo = {}
    for g, name in enumerate(net.weight_names):
        w = params[name]
        t = thresholds[_threshold_row(settings, g)]
        try:
            rng = ExponentRange.for_weights(w)
            qlayer, trace = quantize_layer(w, t, rng)
        except NumericError as exc:
            raise NumericError(f"{name}: {exc}") from exc
        qparams[name] = trace.quantized.reshape(w.shape)
        qinfo[name] = (qlayer, trace)
    return qparams, qinfo


def model_weights(ts: TrainState):
    """The (params, qinfo) that a step or an evaluation of ts's model runs:
    quantize_weights(...), or in float mode the master weights and no traces."""
    if ts.settings.mode == "float":
        return ts.params, {}
    return quantize_weights(ts.net, ts.params, ts.thresholds, ts.settings)


def k_statistics(qinfo: dict, max_k: int):
    """Mean k_i (NaN with no filters) and per-count histogram over every filter of the model."""
    k_i = np.concatenate([np.zeros(0, np.int64)] + [q.k_i for q, _ in qinfo.values()])
    counts = np.bincount(k_i, minlength=max_k + 1)[: max_k + 1]
    return (int(k_i.sum()) / k_i.size if k_i.size else float("nan")), counts.tolist()


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


def train_batch(ts: TrainState, xb, yb):
    """One optimization step; returns (ce, reg, total, correct).

    The threshold gradient reads the traces, which refer to the master weights,
    before the regularizer adds into dL/dw^q and Adam moves the weights."""
    s = ts.settings
    net = ts.net

    try:
        qparams, qinfo = model_weights(ts)
        logits, cache = net.forward(xb, qparams, ts.bn_state, train=True)
    except NumericError as exc:
        raise _dump_state(ts, str(exc)) from exc
    ce, dlogits = cross_entropy(logits, yb)
    net_grads = net.backward(cache, dlogits, qparams)

    # dL/dw^q applies to the master weights (straight-through).  net.param_names,
    # then thresholds: the clip norm sums in this order.
    grads = {name: net_grads[name] for name in net.param_names}
    params = {k: ts.params[k] for k in net.param_names}
    if s.mode == "flex":  # from dL/dw^q, before the regularizer adds into it
        tgrad = np.zeros_like(ts.thresholds)
        for g, name in enumerate(net.weight_names):
            tgrad[_threshold_row(s, g)] += threshold_grad_from_trace(qinfo[name][1], net_grads[name], TAU)
        grads["t"] = tgrad
        params["t"] = ts.thresholds
    reg = 0.0
    if any(l != 0.0 for l in s.lambdas):
        for name, (qlayer, _) in qinfo.items():
            reg += layer_reg_loss(ts.params[name], s.lambdas, qlayer.rng)
            grads[name] += layer_reg_grad(ts.params[name], s.lambdas, qlayer.rng)
    total = ce + reg
    if not np.isfinite(total):
        raise _dump_state(ts, f"non-finite loss (ce={ce}, reg={reg})")

    if s.clip_norm is not None:
        sq = 0.0
        for g in grads.values():
            g = g.reshape(-1).astype(np.float64, copy=False)
            sq += float(np.einsum("i,i->", g, g))
        norm = np.sqrt(sq)
        if norm > s.clip_norm:
            for g in grads.values():
                g *= np.asarray(s.clip_norm / norm, dtype=g.dtype)

    adam_step(params, grads, ts.adam, lr_at(s, ts.epoch))

    correct = int((logits.argmax(axis=1) == yb).sum())
    ts.step += 1
    return ce, reg, total, correct


def _check_data(net: Network, x, y):
    """Raise DataError unless x holds samples and y one integer label in [0, classes) for each."""
    if len(x) == 0 or np.shape(y) != (len(x),):
        raise DataError(f"need samples with one label each, got {len(x)} and labels {np.shape(y)}")
    if not np.issubdtype(np.asarray(y).dtype, np.integer):  # float labels scored 0, bools 0.5
        raise DataError(f"labels must have an integer dtype, got {np.asarray(y).dtype}")
    if np.min(y) < 0 or np.max(y) >= net.config.classes:  # the range cross_entropy accepts
        raise DataError(f"label out of range [0, {net.config.classes})")


def train_epoch(ts: TrainState, train_x, train_y, test_x=None, test_y=None):
    """One full pass; returns EpochMetrics (test fields NaN when no test set)."""
    s = ts.settings
    _check_data(ts.net, train_x, train_y)
    if test_x is not None:
        _check_data(ts.net, test_x, test_y)
    start = time.perf_counter()
    order = ts.rng.permutation(len(train_x))
    sum_ce = sum_reg = 0.0
    correct = 0
    for lo in range(0, len(order), s.batch_size):
        idx = order[lo : lo + s.batch_size]
        ce, reg, _, ok = train_batch(ts, train_x[idx], train_y[idx])
        sum_ce += ce * len(idx)
        sum_reg += reg * len(idx)
        correct += ok
    n = len(order)
    ts.epoch += 1

    eval_params, qinfo = model_weights(ts)
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
        train_acc=correct / n,
        test_acc=test_acc,
        mean_k=mean_k,
        k_hist=hist,
        wall_time=wall,
    )


def evaluate(net: Network, params, bn_state, x, y, batch_size=256) -> float:
    """Top-1 accuracy in eval mode (running batch-norm statistics).

    ConfigError for a missing or misshapen parameter, DataError for bad data."""
    if not (isinstance(batch_size, numbers.Integral) and batch_size >= 1):
        raise ConfigError(f"batch_size must be a positive integer, got {batch_size!r}")
    _check_data(net, x, y)
    net.check_params(params)
    correct = 0
    for lo in range(0, len(x), batch_size):
        logits, _ = net.forward(x[lo : lo + batch_size], params, bn_state, train=False)
        correct += int((logits.argmax(axis=1) == y[lo : lo + batch_size]).sum())
    return correct / len(x)


def train_model(ts: TrainState, train_x, train_y, test_x=None, test_y=None):
    """Run settings.epochs epochs; returns the list of EpochMetrics."""
    history = []
    for _ in range(ts.settings.epochs):
        history.append(train_epoch(ts, train_x, train_y, test_x, test_y))
    return history
