"""train_batch's gradient as a whole: what reaches adam_step."""

from dataclasses import replace

import numpy as np
import pytest

from shiftnn.nn import build_network, get_preset
from shiftnn.nn.optim import adam_step
from shiftnn.trainer import loop
from shiftnn.trainer.loop import TrainSettings, init_train_state, train_batch

MNIST2 = get_preset("mnist2")
# flex mode with thresholds inside the norms' range, so that dL/dt is not 0
FLEX = TrainSettings(batch_size=64, max_k=2, lambdas=(1e-4, 1e-3), threshold_init=1.0, seed=3)


def gradients_at_adam(monkeypatch, settings):
    """The gradients one mnist2 train_batch hands adam_step, by name, copied."""
    gen = np.random.default_rng(4)
    x = gen.standard_normal((64, 1, 28, 28)).astype(np.float32)
    y = gen.integers(0, 10, 64)
    net, params, state = build_network(MNIST2, settings.seed)
    ts = init_train_state(net, params, state, settings)
    seen = {}

    def capture(params, grads, state, lr):
        seen.update({name: g.copy() for name, g in grads.items()})
        return adam_step(params, grads, state, lr)

    with monkeypatch.context() as m:
        m.setattr(loop, "adam_step", capture)
        train_batch(ts, x, y)
    return seen


def test_clip_scales_every_gradient_by_one_factor(monkeypatch):
    free = gradients_at_adam(monkeypatch, replace(FLEX, clip_norm=None))
    norm = np.sqrt(sum(np.sum(np.square(g, dtype=np.float64)) for g in free.values()))
    clip = norm / 64  # far below the gradient norm
    clipped = gradients_at_adam(monkeypatch, replace(FLEX, clip_norm=clip))
    assert clipped.keys() == free.keys() and "t" in free and free["t"].any()
    scale = clip / norm  # s * ||g|| = clip_norm
    for name, g in free.items():
        np.testing.assert_allclose(clipped[name], scale * g, rtol=1e-6, atol=0, err_msg=name)
    clipped_norm = np.sqrt(sum(np.sum(np.square(g, dtype=np.float64)) for g in clipped.values()))
    assert clipped_norm == pytest.approx(clip, rel=1e-6)
