import numpy as np
import pytest

from shiftnn.errors import ConfigError, DataError
from shiftnn.nn import build_network, get_preset
from shiftnn.trainer.loop import (
    TrainSettings,
    evaluate,
    init_train_state,
    k_statistics,
    quantize_weights,
    train_batch,
)

# Three mnist2 steps of run_three_steps(), recorded before the conv patch
# matrix changed to a channel-major layout.  That change reorders the
# float32 sums inside each convolution, so the losses now differ from these
# by up to 7.2e-7 relative (x86-64, OpenBLAS).  1e-4 leaves room for other
# BLAS kernels and stays far below one step's loss change (about 20%).
GOLDEN_LOSSES = [3.9654838272474073, 3.3276183732335003, 2.701790827145597]
GOLDEN_K_HIST = [2, 32, 0]
LOSS_RTOL = 1e-4


def synthetic_batches(seed, steps, batch):
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((10, 1, 28, 28))
    y = rng.integers(0, 10, steps * batch)
    x = (protos[y] + 0.5 * rng.standard_normal((len(y), 1, 28, 28))).astype(np.float32)
    return [(x[i : i + batch], y[i : i + batch]) for i in range(0, len(y), batch)]


def run_three_steps(seed=0):
    net, params, state = build_network(get_preset("mnist2"), seed)
    settings = TrainSettings(
        batch_size=32, max_k=2, lambdas=(1e-4, 1e-3), threshold_init=1.0, seed=seed
    )
    ts = init_train_state(net, params, state, settings)
    losses = [train_batch(ts, xb, yb)[2] for xb, yb in synthetic_batches(seed, 3, 32)]
    _, qinfo = quantize_weights(net, ts.params, ts.thresholds, settings)
    return ts, losses, k_statistics(qinfo, settings.max_k)[1]


class TestTrajectory:
    def test_matches_golden_within_tolerance(self):
        _, losses, hist = run_three_steps()
        np.testing.assert_allclose(losses, GOLDEN_LOSSES, rtol=LOSS_RTOL, atol=0)
        assert hist == GOLDEN_K_HIST

    def test_same_seed_runs_end_bit_identical(self):
        a, losses_a, _ = run_three_steps()
        b, losses_b, _ = run_three_steps()
        assert losses_a == losses_b
        for got, want in ((a.params, b.params), (a.bn_state, b.bn_state)):
            assert got.keys() == want.keys()
            for k in got:
                assert np.array_equal(got[k], want[k]), k
        assert np.array_equal(a.thresholds, b.thresholds)


class TestEvaluate:
    def test_empty_set_rejected(self):
        net, params, state = build_network(get_preset("mnist2"), 0)
        x = np.zeros((0, 1, 28, 28), dtype=np.float32)
        with pytest.raises(DataError):
            evaluate(net, params, state, x, np.zeros(0, dtype=np.int64))


class TestSettings:
    @pytest.mark.parametrize("max_k", [0, 3])
    def test_max_k_within_header_accepted(self, max_k):
        TrainSettings(max_k=max_k, lambdas=(0.0,) * max_k).validate()

    @pytest.mark.parametrize("max_k", [4, -1])
    def test_max_k_outside_header_rejected(self, max_k):
        # the packed stream stores each k_i in 2 bits
        with pytest.raises(ConfigError, match="max_k"):
            TrainSettings(max_k=max_k, lambdas=(0.0,) * max(max_k, 0)).validate()
