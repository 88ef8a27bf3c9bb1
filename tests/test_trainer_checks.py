import numpy as np
import pytest

from shiftnn.errors import ConfigError, NumericError
from shiftnn.nn import LayerSpec, NetworkConfig, build_network
from shiftnn.trainer.loop import TrainSettings, init_train_state, train_batch


class TestCodeBits:
    @pytest.mark.parametrize("code_bits", [3, 8])
    def test_accepted(self, code_bits):
        TrainSettings(code_bits=code_bits).validate()

    @pytest.mark.parametrize("code_bits", [1, 2, 9])
    def test_rejected_up_front(self, code_bits):
        # 9 bits do not fit a uint8 code; 2 bits hold one exponent, too few for a window
        with pytest.raises(ConfigError):
            TrainSettings(code_bits=code_bits).validate()


@pytest.mark.parametrize("tau", [0.0, -1.0, float("nan"), float("inf")])
def test_tau_must_be_positive_and_finite(tau):
    # tau = 0 would turn every threshold into NaN and silently prune every filter
    with pytest.raises(ConfigError, match="tau"):
        TrainSettings(tau=tau).validate()


def tiny_net():
    layers = [
        LayerSpec("conv2d", {"in_channels": 1, "out_channels": 2, "kernel": 3, "pad": 1}),
        LayerSpec("flatten"),
        LayerSpec("dense", {"in_features": 32, "out_features": 3}),
    ]
    return build_network(NetworkConfig("tiny", "test", (1, 4, 4), 3, layers), seed=0)


def test_nan_batch_dumps_reason_and_step(tmp_path):
    net, params, state = tiny_net()
    ts = init_train_state(net, params, state, TrainSettings(dump_dir=str(tmp_path)))
    ts.step = 7
    x = np.full((2, 1, 4, 4), np.nan, dtype=np.float32)
    with pytest.raises(NumericError, match="step 7"):
        train_batch(ts, x, np.array([0, 1]))
    (path,) = tmp_path.iterdir()
    with np.load(path) as dump:
        assert str(dump["__reason"]) == "non-finite network output"
        assert int(dump["__step"]) == 7
        assert np.array_equal(dump["L0.W"], params["L0.W"])


def test_nan_master_weight_dumps_reason_and_step(tmp_path):
    net, params, state = tiny_net()
    ts = init_train_state(net, params, state, TrainSettings(dump_dir=str(tmp_path)))
    ts.step = 4
    params["L2.W"][1, 5] = np.nan
    x = np.zeros((2, 1, 4, 4), dtype=np.float32)
    with pytest.raises(NumericError, match="step 4"):
        train_batch(ts, x, np.array([0, 1]))
    (path,) = tmp_path.iterdir()
    with np.load(path) as dump:
        assert "NaN" in str(dump["__reason"])
        assert int(dump["__step"]) == 4
        assert np.isnan(dump["L2.W"][1, 5])


def test_wrong_shape_parameter_rejected_up_front():
    net, params, state = tiny_net()
    params["L2.W"] = params["L2.W"][:, :-1]
    with pytest.raises(ConfigError, match="L2.W"):
        init_train_state(net, params, state, TrainSettings())
