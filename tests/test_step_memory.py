"""Heap bytes of a warm train step and of a quantized model, as tracemalloc counts them.

numpy reports its array buffers to tracemalloc, so these pins follow what a
step or a quantize_weights call allocates on the heap; the network's
workspace, allocated by an earlier step, is outside them.
"""

import tracemalloc

import numpy as np

from shiftnn.nn import Network, get_preset
from shiftnn.trainer.loop import TrainSettings, init_train_state, quantize_weights, train_batch

MB = 2**20


def traced(call):
    """(call's result, bytes it left allocated, peak bytes allocated during the call)."""
    tracemalloc.start()
    try:
        out = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current, peak


def test_warm_net2_step_allocates_at_most_20_mb_above_its_live_set():
    # the traces hold no residual planes, backward frees each activation once read,
    # and the regularizer adds each layer's gradient in place
    net = Network(get_preset("net2"))
    settings = TrainSettings(batch_size=16, lambdas=(1e-4, 1e-3), threshold_init=0.0)
    ts = init_train_state(net, net.init_params(0), net.init_state(), settings)
    gen = np.random.default_rng(0)
    x = gen.standard_normal((16,) + tuple(net.config.input_shape)).astype(np.float32)
    y = gen.integers(0, net.config.classes, 16)
    train_batch(ts, x, y)  # cold: the workspace is allocated
    _, _, peak = traced(lambda: train_batch(ts, x, y))
    assert peak <= 20 * MB


def test_net2_quantized_model_keeps_at_most_7_mb():
    # export-style: max_k=3, log-uniform filter scales that spread k_i over 0..3.
    # A trace keeps codes and the quantized weight, not k residual planes.
    net = Network(get_preset("net2"))
    params = net.init_params(0)
    gen = np.random.default_rng(0)
    for name in net.weight_names:
        w = params[name]
        scale = np.exp(gen.uniform(-3.5, 0.7, w.shape[0])).astype(w.dtype)
        params[name] = w * scale.reshape((-1,) + (1,) * (w.ndim - 1))
    settings = TrainSettings(max_k=3, lambdas=(0.0,) * 3)
    (_, qinfo), kept, _ = traced(lambda: quantize_weights(net, params, np.full((1, 3), 0.1), settings))
    assert {int(k) for q, _ in qinfo.values() for k in q.k_i} == {0, 1, 2, 3}
    assert kept <= 7 * MB
