import numpy as np
import pytest

from shiftnn.errors import ConfigError, DataError, NumericError, ShiftNNError
from shiftnn.nn import LayerSpec, NetworkConfig, build_network
from shiftnn.nn.optim import AdamState, adam_step
from shiftnn.trainer import SweepCell, cell_to_point, run_cell
from shiftnn.trainer import loop
from shiftnn.trainer.loop import TrainSettings, evaluate, init_train_state, train_batch, train_epoch


@pytest.mark.parametrize("field,value,match", [
    # unchecked, a NaN threshold_init pruned every filter (mean k 0.0 after three steps)
    ("threshold_init", float("nan"), "threshold_init"),
    # these raised TypeError or numpy's ValueError, or a "need 2.5 coefficients" error
    ("fixed_k", 1.5, "fixed_k"),
    ("seed", -1, "seed"),
    ("seed", 1.5, "seed"),
    ("epochs", 1.5, "epochs"),
    ("batch_size", 2.5, "batch_size"),
    ("max_k", 2.5, "max_k"),
    # these surfaced only as a NumericError state dump at step 0 or 1
    ("lr", float("nan"), "lr"),
    ("lambdas", (float("nan"), 0.0), "coefficients"),
    ("lambdas", (0.0, float("inf")), "coefficients"),
    # a NaN clip_norm turned clipping off; a non-finite decay poisons the learning rate
    ("clip_norm", float("nan"), "clip_norm"),
    ("lr_decay", float("inf"), "lr_decay"),
    ("lr_decay", float("nan"), "lr_decay"),
    # these validated, then raised bare ValueErrors inside a run, which run_cell does
    # not record: a zero decay from adam_step, a NaN milestone from int()
    ("lr_decay", 0.0, "lr_decay"),
    ("lr_decay", -0.5, "lr_decay"),
    ("lr_milestones", (float("nan"),), "lr_milestones"),
    ("lr_milestones", (0.5, 1.5), "lr_milestones"),
    ("lr_milestones", (-0.25,), "lr_milestones"),
    ("lr_milestones", ("0.5",), "lr_milestones"),
    ("lr_milestones", 0.5, "lr_milestones"),
    # a NaN weight then raised FileNotFoundError in place of its NumericError
    ("dump_dir", "no-such-directory", "dump_dir"),
    ("dump_dir", 3, "dump_dir"),
    # a decay that underflowed the rate to 0.0 raised adam_step's bare ValueError, and
    # one that overflowed it to inf ended in a NumericError state dump
    ("lr_decay", 1e-200, "lr_decay"),
    ("lr_decay", 1e200, "lr_decay"),
    # 0 and inf turned clipping off as None does; None is the one value that does
    ("clip_norm", 0.0, "clip_norm"),
    ("clip_norm", float("inf"), "clip_norm"),
    ("mode", "bogus", "mode must be one of"),
    # any truthy value trained one threshold row per layer, and None one shared row
    ("per_layer_thresholds", "no", "per_layer_thresholds"),
    ("per_layer_thresholds", 2, "per_layer_thresholds"),
    ("per_layer_thresholds", None, "per_layer_thresholds"),
])
def test_bad_settings_rejected_up_front(field, value, match):
    settings = TrainSettings(mode="fixed", fixed_k=1) if field == "fixed_k" else TrainSettings()
    setattr(settings, field, value)
    with pytest.raises(ConfigError, match=match):
        settings.validate()


def test_numpy_bool_per_layer_thresholds_accepted():
    assert TrainSettings(per_layer_thresholds=np.bool_(True)).validate().per_layer_thresholds


@pytest.mark.parametrize("settings, match", [
    # these validated, then train_batch raised TypeError: 'float' object is not iterable
    (TrainSettings(max_k=1, lambdas=0.1), "lambdas"),
    (TrainSettings(mode="float", lambdas=0.1), "lambdas"),
    # this validated (two coefficients once flattened), then layer_reg_loss asked for one
    (TrainSettings(lambdas=((0.0, 3e-5),)), "lambdas"),
    # this raised numpy's ValueError from validate
    (TrainSettings(lambdas=((0.0,), (0.0, 3e-5))), "lambdas"),
    # these trained in their own mode and ignored fixed_k without a word
    (TrainSettings(fixed_k=1), "fixed_k"),
    (TrainSettings(mode="float", fixed_k=0), "fixed_k"),
], ids=["scalar-flex", "scalar-float", "nested", "ragged", "flex-fixed_k", "float-fixed_k"])
def test_settings_that_cannot_train_rejected_up_front(settings, match):
    with pytest.raises(ConfigError, match=match):
        settings.validate()


TINY = NetworkConfig("tiny", (1, 4, 4), 3, [
    LayerSpec("conv2d", {"out_channels": 2, "kernel": 3, "pad": 1}),
    LayerSpec("flatten"),
    LayerSpec("dense", {"out_features": 3}),
])


def tiny_net():
    return build_network(TINY, seed=0)


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


def test_non_finite_loss_dumps_reason_and_step(tmp_path, monkeypatch):
    net, params, state = tiny_net()
    ts = init_train_state(net, params, state, TrainSettings(dump_dir=str(tmp_path)))
    ts.step = 5
    before = params["L0.W"].copy()
    monkeypatch.setattr(loop, "cross_entropy", lambda logits, labels: (np.inf, np.zeros_like(logits)))
    with pytest.raises(NumericError, match="non-finite loss .* at step 5"):
        train_batch(ts, np.zeros((2, 1, 4, 4), np.float32), np.array([0, 1]))
    assert ts.step == 5 and np.array_equal(params["L0.W"], before)  # no update was made
    (path,) = tmp_path.iterdir()
    with np.load(path) as dump:
        assert str(dump["__reason"]).startswith("non-finite loss (ce=inf")
        assert int(dump["__step"]) == 5
        assert np.array_equal(dump["L0.W"], before)


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


def test_nan_threshold_dumps_reason_and_step(tmp_path):
    # a NaN row closed every gate of its round and trained on, its dL/dt NaN
    net, params, state = tiny_net()
    ts = init_train_state(net, params, state, TrainSettings(dump_dir=str(tmp_path)))
    ts.thresholds[0, 1] = np.nan
    x = np.zeros((2, 1, 4, 4), dtype=np.float32)
    with pytest.raises(NumericError, match="L0.W: threshold of round 1 is NaN at step 0"):
        train_batch(ts, x, np.array([0, 1]))
    (path,) = tmp_path.iterdir()
    with np.load(path) as dump:
        assert str(dump["__reason"]) == "L0.W: threshold of round 1 is NaN"
        assert np.isnan(dump["__thresholds"][0, 1])


def test_nan_weight_error_names_its_tensor(tmp_path):
    net, params, state = tiny_net()
    ts = init_train_state(net, params, state, TrainSettings(dump_dir=str(tmp_path)))
    params["L2.W"][2, 0] = np.nan  # the second weight tensor, not the first
    x = np.zeros((2, 1, 4, 4), dtype=np.float32)
    with pytest.raises(NumericError, match="L2.W"):
        train_batch(ts, x, np.array([0, 1]))
    (path,) = tmp_path.iterdir()
    with np.load(path) as dump:
        assert str(dump["__reason"]).startswith("L2.W: ")


def test_wrong_shape_parameter_rejected_up_front():
    net, params, state = tiny_net()
    params["L2.W"] = params["L2.W"][:, :-1]
    with pytest.raises(ConfigError, match="L2.W"):
        init_train_state(net, params, state, TrainSettings())


@pytest.mark.parametrize("y", [np.array([0]), np.zeros((4, 1), int), np.zeros(3, int)])
def test_evaluate_checks_label_shape(y):
    # unchecked, one label would broadcast over the batch, a column of labels
    # could score above 1, and a short array would raise numpy's bare ValueError
    net, params, state = tiny_net()
    x = np.zeros((4, 1, 4, 4), dtype=np.float32)
    with pytest.raises(DataError, match="labels"):
        evaluate(net, params, state, x, y)


@pytest.mark.parametrize("case", ["missing", "misshapen"])
def test_evaluate_checks_params(case):
    # a missing parameter raised KeyError, a misshapen one numpy's ValueError
    net, params, state = tiny_net()
    if case == "missing":
        del params["L2.W"]
    else:
        params["L2.W"] = params["L2.W"][:, :-1]
    with pytest.raises(ConfigError, match="parameter L2.W"):
        evaluate(net, params, state, np.zeros((4, 1, 4, 4), np.float32), np.zeros(4, int))


@pytest.mark.parametrize("data", [(np.zeros((4, 1, 4, 4), np.float32), np.zeros(4, int)), None],
                         ids=["two arrays", "none"])
def test_run_cell_needs_four_arrays(data):
    # a bare ValueError or TypeError, raised outside the cell's error capture
    with pytest.raises(DataError, match="train_x, train_y, test_x, test_y"):
        run_cell(TINY, TrainSettings(epochs=1, batch_size=2), data)


@pytest.mark.parametrize("batch_size", [-1, 0, 2.5, None])
def test_evaluate_checks_batch_size(batch_size):
    # unchecked, -1 scored 0.0, 0 raised numpy's ValueError and 2.5 a TypeError
    net, params, state = tiny_net()
    x = np.zeros((4, 1, 4, 4), dtype=np.float32)
    with pytest.raises(ConfigError, match="batch_size"):
        evaluate(net, params, state, x, np.zeros(4, int), batch_size=batch_size)


BAD_DATA = {
    # unchecked, train_epoch raised ZeroDivisionError on the empty set and IndexError
    # on the short labels, and evaluate scored the label 99 as a miss
    "empty": (np.zeros((0, 1, 4, 4), np.float32), np.zeros(0, int), "sample"),
    "short labels": (np.zeros((4, 1, 4, 4), np.float32), np.zeros(3, int), "labels"),
    "label 99": (np.zeros((4, 1, 4, 4), np.float32), np.array([0, 1, 2, 99]), "range"),
    "label -1": (np.zeros((4, 1, 4, 4), np.float32), np.array([0, -1, 2, 1]), "range"),
    # float labels made evaluate score 0.0 and bool labels 0.5, and train_epoch raise a bare
    # IndexError for both
    "float labels": (np.zeros((4, 1, 4, 4), np.float32), np.array([0.5, 1.0, 2.0, 3.0]), "integer"),
    "bool labels": (np.zeros((4, 1, 4, 4), np.float32), np.array([True, False, True, False]), "integer"),
}


@pytest.mark.parametrize("case", BAD_DATA)
def test_bad_data_raises_data_error(case):
    x, y, match = BAD_DATA[case]
    good = (np.zeros((4, 1, 4, 4), np.float32), np.array([0, 1, 2, 0]))
    net, params, state = tiny_net()
    ts = init_train_state(net, params, state, TrainSettings(epochs=1, batch_size=2))
    with pytest.raises(DataError, match=match):
        train_epoch(ts, x, y)
    with pytest.raises(DataError, match=match):
        train_epoch(ts, *good, x, y)
    with pytest.raises(DataError, match=match):
        evaluate(net, params, state, x, y)
    # a sweep records the error in its cell instead of stopping
    for data in ((x, y) + good, good + (x, y)):
        cell = run_cell(TINY, TrainSettings(epochs=1, batch_size=2), data)
        assert not cell.ok and match in cell.error


def test_bad_settings_become_cell_errors():
    # a zero decay once passed validate and stopped the sweep at the second epoch
    data = (np.zeros((4, 1, 4, 4), np.float32), np.array([0, 1, 2, 0])) * 2
    cell = run_cell(TINY, TrainSettings(epochs=2, batch_size=2, lr_decay=0.0), data)
    assert not cell.ok and "lr_decay" in cell.error
    # a decay that underflows the rate to 0.0 by the last epoch stopped it at the fourth
    cell = run_cell(TINY, TrainSettings(epochs=4, batch_size=2, lr_decay=1e-200), data)
    assert not cell.ok and "lr_decay" in cell.error


def backward_on(case):
    """Network.backward on a tiny net's train cache that is foreign, stale or of another batch."""
    net, params, state = tiny_net()
    x = np.zeros((2, 1, 4, 4), np.float32)
    logits, cache = net.forward(x, params, state, train=True)
    if case == "foreign":
        net = tiny_net()[0]
    elif case == "stale":
        net.forward(x, params, state, train=True)
    else:
        logits = logits[:1]
    net.backward(cache, np.zeros_like(logits), params)


W = {"w": np.zeros(2)}


@pytest.mark.parametrize("call,match", [
    (lambda: backward_on("foreign"), "does not belong"),
    (lambda: backward_on("stale"), "stale cache"),
    (lambda: backward_on("batch"), "batch size"),
    (lambda: adam_step({**W, "u": np.zeros(1)}, {**W, "u": np.zeros(1)}, AdamState(W), 0.1),
     "unknown parameter"),
    (lambda: adam_step(W, {}, AdamState(W), 0.1), "missing gradient"),
    (lambda: adam_step(W, {"w": np.zeros(3)}, AdamState(W), 0.1), "shape mismatch"),
    (lambda: adam_step(W, W, AdamState(W), 0.0), "lr must be > 0"),
    (lambda: cell_to_point(SweepCell((0.0,), 0, None, None, None, "diverged"), "m"), "cell failed"),
], ids=["foreign-cache", "stale-cache", "batch", "unknown", "missing", "shape", "lr", "cell"])
def test_checks_raise_the_package_error(call, match):
    # each raised a bare ValueError, which a caller catching ShiftNNError let through
    with pytest.raises(ShiftNNError, match=match) as info:
        call()
    assert isinstance(info.value, ConfigError) and isinstance(info.value, ValueError)
