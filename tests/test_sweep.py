"""End to end through the trainer: train_model, train_epoch, EpochMetrics,
run_cell, sweep_lambda and cell_to_point on mnist2 with synthetic data.

Every run trains on 128 class-prototype images at B=64 and max_k=2, one
epoch unless it says otherwise. A cell then scores and prices the model its
mode trains: the quantized model, or in float mode the float one, which the
cost model prices as a 32-bit multiplier design.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from shiftnn.costmodel import cost_report, pareto_front
from shiftnn.errors import ConfigError
from shiftnn.nn import Conv2D, build_network, get_preset
from shiftnn.trainer import (
    TrainSettings,
    cell_to_point,
    evaluate,
    init_train_state,
    quantize_weights,
    run_cell,
    sweep_lambda,
    train_model,
)
from shiftnn.trainer.loop import MODES

MNIST2 = get_preset("mnist2")
BASE = TrainSettings(epochs=1, batch_size=64, lr=3e-3, max_k=2, lambdas=(0.0, 0.0), seed=5)
# mnist2's filters: 8 and 16 in its two convs, 10 in its dense layer; at a
# fixed k each spends k shifts per weight per output position
SHIFTS_PER_K = 290_080
FILTERS = 8 + 16 + 10


def prototype_data(seed=0, n=128, noise=1.5):
    gen = np.random.default_rng(seed)
    protos = gen.standard_normal((10, 1, 28, 28))
    y = gen.integers(0, 10, 2 * n)
    x = (protos[y] + noise * gen.standard_normal((len(y), 1, 28, 28))).astype(np.float32)
    return x[:n], y[:n], x[n:], y[n:]


DATA = prototype_data()


def train_one_epoch(settings, data=DATA, with_test=False):
    net, params, state = build_network(MNIST2, settings.seed)
    ts = init_train_state(net, params, state, settings)
    start = ts.thresholds.copy()
    test = data[2:] if with_test else ()
    (metrics,) = train_model(ts, *data[:2], *test)
    return ts, start, metrics


@pytest.fixture(scope="module")
def fixed_cells():
    cells = {}
    for k in (1, 2):
        cells[k] = run_cell(MNIST2, replace(BASE, mode="fixed", fixed_k=k), DATA)
    return cells


@pytest.fixture(scope="module")
def flex_cell():
    settings = replace(BASE, per_layer_thresholds=True, threshold_init=0.25)
    return run_cell(MNIST2, settings, DATA)


@pytest.mark.parametrize("k", [1, 2])
def test_fixed_mode_gives_every_filter_fixed_k(fixed_cells, k):
    ts, _, metrics = train_one_epoch(replace(BASE, mode="fixed", fixed_k=k))
    _, qinfo = quantize_weights(ts.net, ts.params, ts.thresholds, ts.settings)
    for qlayer, _ in qinfo.values():
        assert (qlayer.k_i == k).all()
    assert metrics.k_hist[k] == FILTERS
    cell = fixed_cells[k]
    assert cell.ok, cell.error
    assert cell.mean_k == k
    for layer in cell.cost.per_layer:
        assert layer.shifts == layer.positions * layer.volume * layer.filters * k


def test_fixed_k2_costs_twice_the_shifts_of_k1(fixed_cells):
    assert fixed_cells[1].cost.shift_count == SHIFTS_PER_K
    assert fixed_cells[2].cost.shift_count == 2 * SHIFTS_PER_K


def test_flex_shifts_lie_strictly_between_fixed_k1_and_k2(fixed_cells, flex_cell):
    assert flex_cell.ok, flex_cell.error
    shifts = flex_cell.cost.shift_count
    assert fixed_cells[1].cost.shift_count < shifts < fixed_cells[2].cost.shift_count
    assert 1.0 < flex_cell.mean_k < 2.0


def test_float_mode_leaves_thresholds_untouched():
    ts, start, metrics = train_one_epoch(replace(BASE, mode="float", threshold_init=0.3))
    assert np.array_equal(ts.thresholds, start)
    assert ts.step == 2 and ts.epoch == 1
    assert math.isnan(metrics.mean_k)


def test_float_cell_reports_the_float_model():
    # a float cell once quantized its weights at k = max_k before it scored and priced them
    settings = replace(BASE, mode="float", epochs=3)
    cell = run_cell(MNIST2, settings, DATA)
    net, params, state = build_network(MNIST2, settings.seed)
    ts = init_train_state(net, params, state, settings)
    train_model(ts, *DATA[:2])
    assert cell.ok, cell.error
    assert cell.accuracy == evaluate(net, ts.params, ts.bn_state, *DATA[2:], settings.batch_size)
    assert cell.cost == cost_report(net)
    cost = cell.cost
    assert (cost.storage_bits, cost.shift_count, cost.multiply_count, cost.add_count) == (
        290_048, 0, 290_080, 280_672)
    assert math.isnan(cell.mean_k)


@pytest.mark.parametrize("mode", MODES)
def test_only_the_float_model_multiplies(mode):
    cell = run_cell(MNIST2, replace(BASE, mode=mode, fixed_k=1 if mode == "fixed" else None), DATA)
    assert cell.ok, cell.error
    assert (cell.cost.multiply_count == 0) == (mode != "float")


def test_flex_mode_moves_thresholds():
    ts, start, _ = train_one_epoch(replace(BASE, threshold_init=0.25))
    assert not np.array_equal(ts.thresholds, start)


def test_epoch_metrics():
    settings = replace(BASE, lambdas=(1e-3, 1e-2))
    _, _, metrics = train_one_epoch(settings)
    assert metrics.epoch == 1
    assert metrics.loss_reg > 0
    assert math.isnan(metrics.test_acc)
    assert 0.0 <= metrics.train_acc <= 1.0
    assert len(metrics.k_hist) == settings.max_k + 1
    assert sum(metrics.k_hist) == FILTERS
    _, _, with_test = train_one_epoch(settings, with_test=True)
    assert 0.0 <= with_test.test_acc <= 1.0


def test_float_cells_carry_no_lambdas():
    # float cells were labelled with lambdas that did not act: these two were equal
    cells = sweep_lambda(MNIST2, replace(BASE, mode="float"), DATA, [(0.0, 0.0), (1.0, 10.0)], [1])
    assert [c.lambdas for c in cells] == [(), ()]
    assert cells[0].ok and cells[1].ok
    assert (cells[0].accuracy, cells[0].cost) == (cells[1].accuracy, cells[1].cost)
    assert cell_to_point(cells[0], "float").lambdas == ()


def test_failing_cell_is_recorded_not_raised():
    wrong = (DATA[0][:, :, :27], *DATA[1:])
    (cell,) = sweep_lambda(MNIST2, BASE, wrong, [(0.0, 0.0)], [1])
    assert not cell.ok
    assert "input shape" in cell.error
    assert cell.accuracy is None and cell.cost is None
    with pytest.raises(ValueError, match="cell failed"):
        cell_to_point(cell, "bad")


@pytest.mark.parametrize("seed", [2.7, float("nan")])
def test_sweep_rejects_a_seed_that_is_not_an_integer(seed):
    # 2.7 trained and recorded seed 2; NaN raised a bare ValueError from int()
    with pytest.raises(ConfigError, match="seed"):
        sweep_lambda(MNIST2, BASE, DATA, [(0.0, 0.0)], [seed])


def test_sweep_rejects_a_scalar_lambda_entry():
    # tuple(0.1) raised a bare TypeError
    with pytest.raises(ConfigError, match="lambdas"):
        sweep_lambda(MNIST2, replace(BASE, max_k=1, lambdas=(0.0,)), DATA, [0.1], [1])


def test_sweep_takes_numpy_integer_seeds():
    (wide,) = sweep_lambda(MNIST2, BASE, DATA, [(0.0, 0.0)], [np.int64(3)])
    (plain,) = sweep_lambda(MNIST2, BASE, DATA, [(0.0, 0.0)], [3])
    assert wide.ok and plain.ok
    assert wide.seed == 3 and (wide.accuracy, wide.mean_k) == (plain.accuracy, plain.mean_k)


def test_bad_label_cell_is_recorded_not_raised():
    train_y = DATA[1].copy()
    train_y[3] = 10  # mnist2 has 10 classes
    (cell,) = sweep_lambda(MNIST2, BASE, (DATA[0], train_y, *DATA[2:]), [(0.0, 0.0)], [1])
    assert not cell.ok
    assert "label out of range" in cell.error
    assert cell.accuracy is None and cell.cost is None


@pytest.mark.parametrize("lambda_list, seeds", [([], [1]), ([(0.0, 0.0)], [])],
                         ids=["no lambdas", "no seeds"])
def test_empty_grid_rejected(lambda_list, seeds):
    # an empty lambda list raised a bare ValueError, and no seeds returned [] silently
    with pytest.raises(ConfigError, match="sweep needs"):
        sweep_lambda(MNIST2, BASE, DATA, lambda_list, seeds)


def test_seed_iterator_serves_every_lambda():
    # a generator of seeds once ran out after the first lambda setting
    wrong = (DATA[0][:, :, :27], *DATA[1:])  # cells fail fast, and are still recorded
    cells = sweep_lambda(MNIST2, BASE, wrong, iter([(0.0, 0.0), (0.0, 1.0)]), iter([1, 2]))
    assert [(c.lambdas, c.seed) for c in cells] == [
        ((0.0, 0.0), 1), ((0.0, 0.0), 2), ((0.0, 1.0), 1), ((0.0, 1.0), 2)]


def test_points_keep_every_lambda():
    # a max_k=3 sweep: the two cells differ only in lambda_2
    base = replace(BASE, max_k=3, mode="fixed", fixed_k=1)
    grid = [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-3)]
    cells = sweep_lambda(MNIST2, base, DATA, grid, [1])
    points = [cell_to_point(c, f"m{i}") for i, c in enumerate(cells)]
    assert [p.lambdas for p in points] == grid
    assert points[0] != points[1]
    assert [p.seed for p in points] == [1, 1]
    assert pareto_front(points)


@pytest.fixture(scope="module")
def lambda1_cells():
    # thresholds start near the round-1 residual norms, where gates can close;
    # 8 epochs (16 steps) lift accuracy clear of chance, 0.1 for 10 classes
    base = replace(BASE, epochs=8, per_layer_thresholds=True, threshold_init=0.25)
    return sweep_lambda(MNIST2, base, DATA, [(0.0, l1) for l1 in (0.0, 0.2, 1.0)], [5])


def test_each_filter_learns_its_own_k(lambda1_cells):
    convs = {l.weight_name for l in build_network(MNIST2, 0)[0].layers if isinstance(l, Conv2D)}
    for cell in lambda1_cells:
        assert cell.ok, cell.error
    # a layer's sum of k_i is its shifts per output position per weight; a sum
    # that F does not divide means the layer holds filters of different k_i
    mixed = []
    for layer in lambda1_cells[0].cost.per_layer:
        k_sum, rest = divmod(layer.shifts, layer.positions * layer.volume)
        assert rest == 0
        if layer.name in convs and k_sum % layer.filters:
            mixed.append(layer.name)
    assert mixed


def test_mean_k_falls_as_lambda1_rises(lambda1_cells):
    mean_k = [cell.mean_k for cell in lambda1_cells]
    assert mean_k[0] >= mean_k[1] >= mean_k[2]
    assert mean_k[2] < mean_k[0]
    points = [cell_to_point(cell, f"l1-{i}") for i, cell in enumerate(lambda1_cells)]
    assert [p.mean_k for p in points] == mean_k
    for cost in ("storage_bits", "shifts"):
        front = pareto_front(points, cost)
        assert front and all(p in points for p in front)


def test_accuracy_pays_for_a_lower_k(lambda1_cells):
    acc = [cell.accuracy for cell in lambda1_cells]
    assert acc[0] >= 0.2  # twice chance
    assert acc[2] < acc[0]
