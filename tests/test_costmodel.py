import math
import re
from dataclasses import replace

import numpy as np
import pytest

from shiftnn import packing
from shiftnn.costmodel import (CostReport, LayerCost, ParetoPoint, cost_report, op_counts,
                               pareto_front)
from shiftnn.errors import ConfigError
from shiftnn.nn import PRESETS, LayerSpec, Network, NetworkConfig, SkipSpec, get_preset
from shiftnn.quant import ExponentRange, QuantizedLayer


def small_net():
    """Two convs on a 1x4x4 input, a 1x1 projection skip, and a dense head.

    L0  conv 1->2, k3, pad 1                -> (2, 4, 4)
    L1  leaky-relu                          -> (2, 4, 4)
    L2  conv 2->3, k3, stride 2, pad 1      -> (3, 2, 2), plus S0(node 1)
    S0  projection conv 2->3, k1, stride 2  -> (3, 2, 2)
    L4  dense 12->5, bias                   -> (5,)

    Only the dense head has a bias: a conv has none.
    """
    conv = {"kernel": 3, "pad": 1}
    layers = [
        LayerSpec("conv2d", {"out_channels": 2, **conv}),
        LayerSpec("leaky-relu"),
        LayerSpec("conv2d", {"out_channels": 3, "stride": 2, **conv}),
        LayerSpec("flatten"),
        LayerSpec("dense", {"out_features": 5}),
    ]
    return Network(NetworkConfig("small", (1, 4, 4), 5, layers, [SkipSpec(1, 2)]))


K_MAP = {"L0.W": [2, 0], "L2.W": [1, 3, 0], "L4.W": 1, "S0.W": 2}


def qlayers_for(net, k_map):
    """Layers with the given k_i whose kept terms are all zero codes."""
    shapes = net.param_shapes()
    out = {}
    for name in net.weight_names:
        F, *filter_shape = shapes[name]
        k_i = np.broadcast_to(np.asarray(k_map[name], dtype=np.int8), (F,)).copy()
        codes = np.zeros((int(k_i.sum()), int(np.prod(filter_shape))), dtype=np.uint8)
        out[name] = QuantizedLayer(filter_shape, ExponentRange(0), k_i, codes)
    return out


def test_weight_order_and_projection():
    net = small_net()
    assert net.weight_names == ["L0.W", "L2.W", "L4.W", "S0.W"]
    assert net.skips[2][1] is not None
    # the weights, then every other parameter in param_shapes order
    assert list(net.param_shapes()) == ["L0.W", "L2.W", "L4.W", "L4.b", "S0.W"]
    assert net.param_names == ["L0.W", "L2.W", "L4.W", "S0.W", "L4.b"]


def test_hand_counted_shift_adds():
    net = small_net()
    report = op_counts(net, K_MAP)
    by_name = {c.name: (c.shifts, c.adds) for c in report.per_layer}
    # L0: 16 positions x 9 taps.  Filter 0 spends 2 shifts per tap, 1 add to
    # join them, and 8 accumulate adds; filter 1 is pruned.
    assert by_name["L0.W"] == (16 * 9 * 2, 16 * 9 * 1 + 16 * 8)
    # L2: 4 positions x 18 taps; k_i = 1 and 3, third filter pruned.
    assert by_name["L2.W"] == (4 * 18 * 4, 4 * 18 * 2 + 2 * 4 * 17)
    # L4: one position, 12 taps plus bias, one term in each of 5 filters.
    assert by_name["L4.W"] == (12 * 5, 5 * 12)
    # S0: 4 positions x 2 taps, two terms in each of 3 filters.
    assert by_name["S0.W"] == (4 * 2 * 6, 4 * 2 * 3 + 3 * 4 * 1)
    assert report.shift_count == 288 + 288 + 60 + 48
    # plus one add per element of the (3, 2, 2) map the skip lands on
    assert report.add_count == 272 + 280 + 60 + 36 + 12
    assert report.multiply_count == 0


def test_cost_report_reads_k_i_and_packed_storage():
    net = small_net()
    qlayers = qlayers_for(net, K_MAP)
    report = cost_report(net, qlayers)
    assert (report.shift_count, report.add_count) == (684, 660)
    # per layer: 2 bits per filter plus 4 bits per kept code, padded to bytes
    assert report.storage_bits == 80 + 296 + 256 + 56
    assert report.storage_bits == packing.storage_bits([qlayers[n] for n in net.weight_names])


def test_multiplier_baseline():
    net = small_net()
    report = cost_report(net)
    # one multiply per MAC: L0 16*9*2, L2 4*18*3, L4 12*5, S0 4*2*3
    assert report.multiply_count == 288 + 216 + 60 + 24
    # V - 1 adds per output (V with L4's bias), plus the 12 shortcut adds
    assert report.add_count == 16 * 2 * 8 + 4 * 3 * 17 + 5 * 12 + 4 * 3 * 1 + 12
    assert report.shift_count == 0
    assert report.storage_bits == 32 * (18 + 54 + 60 + 6)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_preset_kernel_geometry_matches_param_shapes(preset):
    net = Network(get_preset(preset))
    shapes = net.param_shapes()
    kernels = net.kernels()
    assert [layer.weight_name for layer, _ in kernels] == net.weight_names
    for layer, out_shape in kernels:
        w = shapes[layer.weight_name]
        assert w[0] == out_shape[0], layer.name  # one output channel per filter
        assert layer.fan_in == math.prod(w[1:]), layer.name


def test_preset_totals():
    net2 = Network(get_preset("net2"))
    k2 = op_counts(net2, dict.fromkeys(net2.weight_names, 2))
    # the 17 chain convs no longer add a bias: 139,264 adds fewer, one per output,
    # P*F = 16,384 (stem) + 4*16,384 + 4*8,192 + 4*4,096 + 4*2,048.  So
    # 70,140,416 - 139,264 at k = 2 and 35,093,760 - 139,264 in the baseline.
    assert (k2.shift_count, k2.add_count) == (70_093_312, 70_001_152)
    baseline = cost_report(net2)
    assert (baseline.multiply_count, baseline.add_count) == (35_046_656, 34_954_496)
    mnist2 = Network(get_preset("mnist2"))
    assert op_counts(mnist2, dict.fromkeys(mnist2.weight_names, 1)).shift_count == 290_080


def test_k_map_shape_checked():
    net = small_net()
    with pytest.raises(ConfigError, match="L0.W"):
        op_counts(net, {**K_MAP, "L0.W": [1, 1, 1]})
    # with no k map, the multiplier design that cost_report prices
    assert op_counts(net) == replace(cost_report(net), storage_bits=0)
    # a weight missing from the map raised KeyError
    with pytest.raises(ConfigError, match="L0.W"):
        op_counts(net, {})
    with pytest.raises(ConfigError, match="L0.W"):
        cost_report(net, {})


@pytest.mark.parametrize("filter_shape", [(2, 5, 5), (9,), (1, 3, 3, 1)])
def test_cost_report_checks_filter_shape(filter_shape):
    # an (8, 2, 5, 5) layer for mnist2's (8, 1, 3, 3) L0.W was priced at 75,208 storage
    # bits, not 72,584, beside op counts taken from the network
    net = Network(get_preset("mnist2"))
    qlayers = qlayers_for(net, dict.fromkeys(net.weight_names, 2))
    assert cost_report(net, qlayers).storage_bits == 72_584
    qlayers["L0.W"] = QuantizedLayer(filter_shape, ExponentRange(0), np.full(8, 2, np.int8),
                                     np.zeros((16, math.prod(filter_shape)), np.uint8))
    with pytest.raises(ConfigError, match=r"L0.W: quantized filters have shape"):
        cost_report(net, qlayers)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
def test_k_i_of_any_integer_dtype_counts_alike(dtype):
    # op_counts counts filters by k with np.bincount, which numpy 1.x refuses uint64 for
    net = small_net()
    k_map = {name: np.asarray(k, dtype) for name, k in K_MAP.items()}
    assert op_counts(net, k_map) == op_counts(net, K_MAP)


def wide_config(integer):
    """(3, 512, 512) -> two 3x3, pad-1, 256-channel convs -> maxpool 512 -> flatten ->
    dense 10, with every integer of the input shape and the layer arguments as integer(value)."""
    conv = {"out_channels": integer(256), "kernel": integer(3), "stride": integer(1),
            "pad": integer(1)}
    layers = [LayerSpec("conv2d", conv), LayerSpec("conv2d", dict(conv)),
              LayerSpec("maxpool", {"size": integer(512)}), LayerSpec("flatten"),
              LayerSpec("dense", {"out_features": integer(10)})]
    return NetworkConfig("wide", tuple(integer(d) for d in (3, 512, 512)), 10, layers)


def test_numpy_integer_layer_args_count_as_python_ints():
    # np.int32 arguments were kept as given, so node shapes, fan_in and every count
    # were int32: 1,811,941,888 multiplies, and -671,083,520 shifts at k = 2
    net, ref = Network(wide_config(np.int32)), Network(wide_config(int))
    assert net.node_shapes == ref.node_shapes
    assert all(type(d) is int for shape in net.node_shapes for d in shape)
    for k_map in (None, dict.fromkeys(ref.weight_names, 2)):
        assert op_counts(net, k_map) == op_counts(ref, k_map)
    assert op_counts(net).multiply_count == 156_430_764_544
    assert op_counts(net, dict.fromkeys(net.weight_names, 2)).shift_count == 312_861_529_088


@pytest.mark.parametrize("k", [-1, 4, [1, -1, 0], [1.7] * 3, 1.0, [True] * 3])
def test_k_i_must_be_integers_the_header_holds(k):
    # unchecked, a negative k_i would lower the shift total and 1.7 would count as 1
    with pytest.raises(ConfigError, match="L2.W"):
        op_counts(small_net(), {**K_MAP, "L2.W": k})


def reference_op_counts(net, k_map):
    """op_counts filter by filter in Python ints: a filter of k > 0 terms spends k shifts
    per weight, k - 1 adds to join them and V - 1 adds (V with a bias) to accumulate."""
    per_layer = []
    for layer, out_shape in net.kernels():
        F, P, V = out_shape[0], math.prod(out_shape[1:]), layer.fan_in
        k = k_map[layer.weight_name]
        shifts = adds = 0
        for k_f in [int(k)] * F if np.ndim(k) == 0 else [int(x) for x in k]:
            if k_f:
                shifts += P * V * k_f
                adds += P * (V * k_f - 1 + layer.bias)
        per_layer.append(LayerCost(layer.weight_name, P, V, F, shifts, adds, 0))
    skip_adds = sum(math.prod(net.node_shapes[dst]) for dst in net.skips)
    return CostReport(0, sum(c.shifts for c in per_layer),
                      sum(c.adds for c in per_layer) + skip_adds, 0, per_layer)


def random_k_map(net, gen):
    """Scalar and vector entries of several integer types, k_i spread over 0..MAX_K."""
    k_map = {}
    for layer, (F, *_) in net.kernels():
        kind = gen.integers(4)
        if kind == 0:
            k_map[layer.weight_name] = int(gen.integers(packing.MAX_K + 1))
        elif kind == 1:
            k_map[layer.weight_name] = np.uint8(gen.integers(packing.MAX_K + 1))
        else:
            dtype = [np.int8, np.uint64, np.int64][int(gen.integers(3))]
            k_i = gen.integers(0, packing.MAX_K + 1, F).astype(dtype)
            k_map[layer.weight_name] = k_i.tolist() if kind == 2 else k_i
    return k_map


@pytest.mark.parametrize("preset", ["small", "mnist2", "net2"])
def test_op_counts_match_a_per_filter_reference(preset):
    net = small_net() if preset == "small" else Network(get_preset(preset))
    gen = np.random.default_rng(len(preset))
    for _ in range(10):
        k_map = random_k_map(net, gen)
        assert op_counts(net, k_map) == reference_op_counts(net, k_map)
    assert op_counts(net, dict.fromkeys(net.weight_names, 0)).shift_count == 0


@pytest.mark.parametrize("bad", [4, -1, "vector", 2.0])
@pytest.mark.parametrize("which", [1, 10, -1], ids=["second", "middle", "last"])
def test_bad_k_in_a_later_layer_names_that_layer(which, bad):
    net = Network(get_preset("net2"))
    name = net.weight_names[which]
    F = net.param_shapes()[name][0]
    k = np.where(np.arange(F) == F // 2, 4, 1) if bad == "vector" else bad
    k_map = {**dict.fromkeys(net.weight_names, 1), name: k}
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: k_i must be integers"):
        op_counts(net, k_map)
    # a layer after it with no entry, or a misshapen one, is not the first error
    later = net.weight_names[-1]
    if later != name:
        missing = {n: v for n, v in k_map.items() if n != later}
        for other in (missing, {**k_map, later: [1, 2]}):
            with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: k_i"):
                op_counts(net, other)


def point(model_id, accuracy, storage_bits):
    return ParetoPoint(model_id, (0.0, 0.0), 0, accuracy, storage_bits, 0, 0, 0, 1.0)


def test_pareto_front_dominance_and_duplicates():
    points = [
        point("dominated-by-a", 0.8, 120),
        point("a", 0.9, 100),
        point("same-cost-worse", 0.8, 100),
        point("same-acc-dearer", 0.9, 130),
        point("best", 0.95, 150),
        point("cheapest", 0.7, 50),
        point("dup-of-a", 0.9, 100),
        point("dup-of-best", 0.95, 150),
    ]
    front = [p.model_id for p in pareto_front(points)]
    assert front == ["cheapest", "a", "dup-of-a", "best", "dup-of-best"]


def test_pareto_front_rejects_empty_and_bad_accuracy():
    with pytest.raises(ConfigError):
        pareto_front([])
    with pytest.raises(ConfigError):
        point("bad", 1.5, 1)
