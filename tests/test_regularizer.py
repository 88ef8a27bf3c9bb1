import numpy as np
import pytest

from shiftnn.errors import ConfigError
from shiftnn.quant import ExponentRange
from shiftnn.trainer.regularizer import check_lambdas, layer_reg_grad, layer_reg_loss

WIDE = ExponentRange(e_max=16, code_bits=8)


def test_all_zero_weights():
    assert layer_reg_loss(np.zeros((3, 5)), [1e-5, 3e-5], WIDE) == 0.0


def test_hand_evaluated_scalar_filter():
    # r0 = 0.75, r1 = 0.75 - 1 = -0.25
    loss = layer_reg_loss(np.array([[0.75]]), [1e-5, 3e-5], WIDE)
    assert abs(loss - (1e-5 * 0.75 + 3e-5 * 0.25)) < 1e-18


def test_zero_lambda_is_free():
    w = np.random.default_rng(0).normal(size=(4, 9))
    assert layer_reg_loss(w, [0.0, 0.0], WIDE) == 0.0
    assert np.array_equal(layer_reg_grad(w, [0.0, 0.0], WIDE), np.zeros_like(w))


def test_loss_nonnegative():
    gen = np.random.default_rng(1)
    for _ in range(20):
        w = gen.normal(size=(3, 8)) * gen.uniform(0.01, 10)
        assert layer_reg_loss(w, [1e-4, 1e-4], WIDE) >= 0.0


def test_negative_lambda_rejected():
    with pytest.raises(ConfigError):
        check_lambdas([-1e-5, 0.0], 2)


def test_lambda_count_must_match_the_rounds():
    with pytest.raises(ConfigError, match="need 2 regularization coefficients, got 3"):
        check_lambdas([0.0, 1e-5, 1e-5], 2)


def test_grad_zero_filter_subgradient():
    g = layer_reg_grad(np.zeros((2, 4)), [1.0, 1.0], WIDE)
    assert np.array_equal(g, np.zeros((2, 4)))


def test_grad_unit_vector_for_first_round():
    g = layer_reg_grad(np.array([[0.6]]), [1.0, 0.0], WIDE)
    assert abs(g[0, 0] - 1.0) < 1e-15


def test_grad_matches_finite_differences_away_from_kinks():
    gen = np.random.default_rng(2)
    w = gen.normal(size=(5, 7)).astype(np.float64)
    lam = [1e-2, 3e-2]
    analytic = layer_reg_grad(w, lam, WIDE)

    flat = w.reshape(-1)
    checked = 0
    h = 1e-5
    for i in gen.choice(flat.size, size=30, replace=False):
        old = flat[i]

        def f():
            return layer_reg_loss(w, lam, WIDE)

        flat[i] = old + h
        fp = f()
        flat[i] = old - h
        fm = f()
        flat[i] = old + h / 2
        fp2 = f()
        flat[i] = old - h / 2
        fm2 = f()
        flat[i] = old
        num = (fp - fm) / (2 * h)
        num2 = (fp2 - fm2) / h
        if abs(num - num2) > 1e-6 * max(1.0, abs(num)):
            continue  # probe straddles a rounding boundary
        checked += 1
        denom = max(abs(num), abs(analytic.reshape(-1)[i]), 1e-9)
        assert abs(num - analytic.reshape(-1)[i]) / denom < 1e-4
    assert checked >= 20

