"""train_batch's gradient as a whole: what reaches adam_step."""

from dataclasses import replace

import numpy as np
import pytest

from shiftnn.nn import build_network, get_preset
from shiftnn.nn.optim import adam_step
from shiftnn.quant import ExponentRange
from shiftnn.trainer import layer_reg_grad, loop
from shiftnn.trainer.loop import MODES, TrainSettings, init_train_state, train_batch

MNIST2 = get_preset("mnist2")
# flex mode with thresholds inside the norms' range, so that dL/dt is not 0
FLEX = TrainSettings(batch_size=64, max_k=2, lambdas=(1e-4, 1e-3), threshold_init=1.0, seed=3)
# clipping scales every gradient by a factor that all of them set, so the
# checks that compare single gradients across settings run without it
FREE = replace(FLEX, clip_norm=None)
NO_REG = replace(FREE, lambdas=(0.0, 0.0))


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


def assert_same_bits(got, want, name):
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def test_per_layer_threshold_rows_sum_to_the_shared_row(monkeypatch):
    shared = gradients_at_adam(monkeypatch, FREE)
    rows = gradients_at_adam(monkeypatch, replace(FREE, per_layer_thresholds=True))
    assert rows.keys() == shared.keys()
    for name in shared.keys() - {"t"}:  # the weight, bias and BatchNorm gradients
        assert_same_bits(rows[name], shared[name], name)
    assert rows["t"].shape == (3, 2) and shared["t"].shape == (1, 2)
    assert rows["t"].any(axis=1).all()  # each of mnist2's three weights fills its own row
    # the shared row adds the layers' rows in weight order, starting from zero
    assert_same_bits(sum(rows["t"], np.zeros(2)), shared["t"][0], "t")


def test_regularizer_adds_its_gradient_to_the_weights_alone(monkeypatch):
    reg = gradients_at_adam(monkeypatch, FREE)
    plain = gradients_at_adam(monkeypatch, NO_REG)
    net, params, _ = build_network(MNIST2, FREE.seed)
    assert reg.keys() == plain.keys() == {*net.param_names, "t"}
    for name, g in reg.items():
        want = plain[name]
        if name in net.weight_names:
            w = params[name]
            step = layer_reg_grad(w, FREE.lambdas, ExponentRange.for_weights(w))
            assert step.any(), name
            want = want + step
        assert_same_bits(g, want, name)


def test_float_mode_ignores_the_regularizer(monkeypatch):
    reg = gradients_at_adam(monkeypatch, replace(FREE, mode="float"))
    plain = gradients_at_adam(monkeypatch, replace(NO_REG, mode="float"))
    assert reg.keys() == plain.keys() == set(build_network(MNIST2, 0)[0].param_names)
    for name, g in reg.items():
        assert_same_bits(g, plain[name], name)


def test_fixed_mode_hands_adam_no_thresholds(monkeypatch):
    grads = gradients_at_adam(monkeypatch, replace(FREE, mode="fixed", fixed_k=1))
    assert grads.keys() == set(build_network(MNIST2, 0)[0].param_names)


@pytest.mark.parametrize("mode", MODES)
def test_adam_holds_the_thresholds_only_in_flex_mode(mode):
    # fixed and float mode never step the thresholds, so their moments are not kept
    settings = replace(FREE, mode=mode, fixed_k=1 if mode == "fixed" else None)
    net, params, state = build_network(MNIST2, settings.seed)
    ts = init_train_state(net, params, state, settings)
    want = set(net.param_names) | ({"t"} if mode == "flex" else set())
    assert ts.adam.m.keys() == ts.adam.v.keys() == want
