import math

import numpy as np
import pytest

from conftest import probe_gradient
from shiftnn.errors import ConfigError, DataError, NumericError
from shiftnn.nn import layers
from shiftnn.nn.layers import Workspace
from shiftnn.nn import (
    PRESETS,
    AdamState,
    BatchNorm2D,
    Conv2D,
    Dense,
    Flatten,
    LeakyReLU,
    MaxPool2D,
    Network,
    NetworkConfig,
    LayerSpec,
    SkipSpec,
    adam_step,
    build_network,
    cross_entropy,
    get_preset,
)


def naive_conv2d(x, w, stride, pad):
    """Direct scalar convolution, independent of the im2col path."""
    N, C, H, W = x.shape
    F, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    y = np.zeros((N, F, Ho, Wo), dtype=np.float64)
    for n in range(N):
        for f in range(F):
            for i in range(Ho):
                for j in range(Wo):
                    acc = 0.0
                    for c in range(C):
                        for a in range(kh):
                            for bb in range(kw):
                                acc += xp[n, c, i * stride + a, j * stride + bb] * w[f, c, a, bb]
                    y[n, f, i, j] = acc
    return y


def float64(arrays):
    """A float64 copy of a parameter or state dict: networks initialise float32."""
    return {k: v.astype(np.float64) for k, v in arrays.items()}


def two_conv_config(in_shape=(4, 8, 8), classes=3):
    layers = [
        LayerSpec("conv2d", {"out_channels": 5, "kernel": 3, "pad": 1}),
        LayerSpec("batchnorm", {}),
        LayerSpec("leaky-relu", {}),
        LayerSpec("maxpool", {"size": 2}),
        LayerSpec("conv2d", {"out_channels": 6, "kernel": 3, "pad": 1}),
        LayerSpec("batchnorm", {}),
        LayerSpec("leaky-relu", {}),
        LayerSpec("flatten", {}),
        LayerSpec("dense", {"out_features": classes}),
    ]
    return NetworkConfig("twoconv", in_shape, classes, layers, [])


class TestForward:
    def test_identity_conv(self):
        layer = Conv2D("L0", 1, 1, kernel=1)
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        params = {"L0.W": np.ones((1, 1, 1, 1))}
        y, _ = layer.forward(x, params, {}, train=False)
        assert np.array_equal(y, x)

    def test_all_zero_weights_give_zero_logits(self):
        cfg = two_conv_config()
        net = Network(cfg)
        params = {k: np.zeros(s) for k, s in net.param_shapes().items()}
        # gamma zero keeps the whole path zero-preserving
        x = np.random.default_rng(1).normal(size=(3, 4, 8, 8))
        logits, _ = net.forward(x, params, float64(net.init_state()), train=False)
        assert np.array_equal(logits, np.zeros_like(logits))

    def test_conv_net_matches_scalar_oracle(self):
        # check the layer directly on both convs of a small net
        gen = np.random.default_rng(42)
        x = gen.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w1 = gen.normal(size=(5, 4, 3, 3)).astype(np.float32)
        conv1 = Conv2D("L0", 4, 5, kernel=3, stride=1, pad=1)
        y1, _ = conv1.forward(x, {"L0.W": w1}, {}, False)
        ref1 = naive_conv2d(x.astype(np.float64), w1.astype(np.float64), 1, 1)
        assert np.abs(y1 - ref1).max() <= 1e-5 * max(1.0, np.abs(ref1).max())

        w2 = gen.normal(size=(3, 5, 3, 3)).astype(np.float32)
        conv2 = Conv2D("L1", 5, 3, kernel=3, stride=2, pad=0)
        y2, _ = conv2.forward(y1, {"L1.W": w2}, {}, False)
        ref2 = naive_conv2d(ref1, w2.astype(np.float64), 2, 0)
        assert np.abs(y2 - ref2).max() <= 1e-5 * max(1.0, np.abs(ref2).max())

    def test_forward_determinism(self):
        cfg = two_conv_config()
        net, params, state = build_network(cfg, seed=3)
        x = np.random.default_rng(4).normal(size=(2, 4, 8, 8)).astype(np.float32)
        a, _ = net.forward(x, params, dict(state), train=False)
        b, _ = net.forward(x, params, dict(state), train=False)
        assert np.array_equal(a, b)

    def test_shape_mismatch_raises(self):
        net = Network(two_conv_config())
        params = net.init_params(0)
        with pytest.raises(ConfigError):
            net.forward(np.zeros((1, 3, 8, 8), dtype=np.float32), params, {})

    @pytest.mark.parametrize("train", [True, False])
    def test_empty_batch_rejected(self, train):
        # unchecked, Flatten's reshape raised numpy's bare ValueError
        net, params, state = build_network(two_conv_config(), seed=9)
        with pytest.raises(ConfigError, match="at least one sample"):
            net.forward(np.zeros((0, 4, 8, 8), np.float32), params, state, train=train)

    def test_nonfinite_output_raises(self):
        net = Network(two_conv_config())
        params = float64(net.init_params(0))
        params["L8.W"][:] = np.inf
        # inf weights against mixed-sign activations make inf - inf in the matmul
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="invalid value"):
            net.forward(np.ones((1, 4, 8, 8)), params, float64(net.init_state()), train=False)


class TestBackward:
    def test_zero_logit_grad_gives_zero_grads(self):
        net, params, state = build_network(two_conv_config(), seed=5)
        params, state = float64(params), float64(state)
        x = np.random.default_rng(6).normal(size=(2, 4, 8, 8))
        logits, cache = net.forward(x, params, state, train=True)
        grads = net.backward(cache, np.zeros_like(logits), params)
        assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())

    def test_dense_scalar_weight_grad_is_input(self):
        layer = Dense("L0", 3, 1)
        x = np.array([[1.5, -2.0, 0.25]])
        params = {"L0.W": np.zeros((1, 3)), "L0.b": np.zeros(1)}
        _, cache = layer.forward(x, params, {}, False)
        _, grads = layer.backward(np.ones((1, 1)), cache, params)
        assert np.array_equal(grads["L0.W"], x)

    def test_stale_cache_rejected(self):
        net, params, state = build_network(two_conv_config(), seed=7)
        other = Network(two_conv_config())
        x = np.random.default_rng(8).normal(size=(1, 4, 8, 8)).astype(np.float32)
        logits, cache = net.forward(x, params, state, train=True)
        with pytest.raises(ValueError):
            other.backward(cache, np.zeros_like(logits), params)
        with pytest.raises(ValueError):
            net.backward({"net": None}, np.zeros_like(logits), params)

    @pytest.mark.parametrize("layer,shape", [
        pytest.param(Conv2D("L0", 4, 3, kernel=3, pad=1), (4, 6, 6), id="conv2d-gemm"),
        pytest.param(Conv2D("L0", 3, 4, kernel=3, pad=1), (3, 6, 6), id="conv2d-col2im"),
        pytest.param(Conv2D("L0", 3, 2, kernel=3, stride=2), (3, 7, 7), id="conv2d-strided"),
        pytest.param(BatchNorm2D("L0", 3), (3, 5, 5), id="batchnorm"),
        pytest.param(LeakyReLU("L0"), (3, 4, 4), id="leaky-relu"),
        pytest.param(MaxPool2D("L0", size=2), (3, 4, 4), id="maxpool"),
        pytest.param(Flatten("L0"), (3, 4, 4), id="flatten"),
        pytest.param(Dense("L0", 7, 3), (7,), id="dense"),
    ])
    def test_backward_without_dx_keeps_parameter_gradients(self, layer, shape):
        # the network asks its first layer for no input gradient
        gen = np.random.default_rng(44)
        params = layer.init_params(gen, np.float32)
        params = {k: v + gen.standard_normal(v.shape).astype(np.float32) for k, v in params.items()}
        x = gen.standard_normal((4,) + shape).astype(np.float32)
        ws = Workspace()
        results = []
        for need_dx in (True, False):
            y, cache = layer.forward(x, params, layer.init_state(np.float32), True, ws=ws)
            dy = np.random.default_rng(45).standard_normal(y.shape).astype(np.float32)
            dx, grads = layer.backward(dy, cache, params, ws=ws, need_dx=need_dx)
            results.append((dx, {k: g.copy() for k, g in grads.items()}))
        (dx, want), (no_dx, got) = results
        assert dx.shape == x.shape and no_dx is None
        assert got.keys() == want.keys() == params.keys()
        for name in want:
            assert np.array_equal(bits(got[name]), bits(want[name])), name

    def test_eval_forward_keeps_no_cache(self):
        # net2 has identity and projection skips, which an eval forward still adds
        net, params, state = build_network(get_preset("net2"), seed=7)
        x = np.random.default_rng(8).normal(size=(1, 3, 32, 32)).astype(np.float32)
        logits, cache = net.forward(x, params, dict(state), train=False)
        assert cache is None
        with pytest.raises(ValueError):
            net.backward(cache, np.zeros_like(logits), params)


def train_step(net, params, state, x, labels):
    """One train forward and backward: (logits, parameter gradients)."""
    logits, cache = net.forward(x, params, state, train=True)
    _, dlogits = cross_entropy(logits, labels)
    return logits, net.backward(cache, dlogits, params)


def overlapping_skips_config():
    """Skips 0->4 and 2->7 overlap, node 2 feeds two skips (2->5 too), and node 5
    takes one and feeds another (5->10): backward needs two skip slots."""
    def block(channels, stride=1):
        return [LayerSpec("conv2d", {"out_channels": channels, "kernel": 3, "stride": stride,
                                     "pad": 1}),
                LayerSpec("batchnorm", {}), LayerSpec("leaky-relu", {})]
    layers = (block(4) + block(4) + block(6, stride=2) + block(6)
              + [LayerSpec("flatten", {}), LayerSpec("dense", {"out_features": 3})])
    skips = [SkipSpec(0, 4), SkipSpec(2, 5), SkipSpec(2, 7), SkipSpec(5, 10)]
    return NetworkConfig("overlap", (2, 6, 6), 3, layers, skips)


def reference_backward(net, cache, dlogits, params):
    """Network.backward without a workspace: every layer allocates its input
    gradient and every sum is a new array, in the same order."""
    grads = {}
    node_grads = [None] * len(net.layers)
    node_grads[-1] = dlogits
    for i in range(len(net.layers) - 1, -1, -1):
        g = node_grads[i]
        if i in net.skips:
            src, proj = net.skips[i]
            branch = g
            if proj is not None:
                branch, pgrads = proj.backward(g, cache["skip_caches"][i], params)
                grads.update(pgrads)
            node_grads[src] = branch if node_grads[src] is None else node_grads[src] + branch
        dx, layer_grads = net.layers[i].backward(g, cache["caches"][i], params, need_dx=i > 0)
        grads.update(layer_grads)
        if i > 0:
            node_grads[i - 1] = dx if node_grads[i - 1] is None else node_grads[i - 1] + dx
    return grads


class TestWorkspace:
    """Train steps reuse the network's buffers; what they return stays the caller's."""

    def batches(self, net, n, batch, seed):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(n, batch) + tuple(net.config.input_shape)).astype(net.dtype)
        return x, gen.integers(0, net.config.classes, size=(n, batch))

    def test_warm_steps_reuse_buffers_and_keep_results(self):
        net, params, state = build_network(get_preset("mnist2"), seed=30)
        x, y = self.batches(net, 3, 8, seed=31)
        train_step(net, params, state, x[0], y[0])  # cold: the buffers are allocated
        cols = net._workspace.areas()[Workspace.COLS]  # the convs' shared patch area
        x1 = x[1]
        logits, cache = net.forward(x1, params, state, train=True)
        assert cache["caches"][0] is x1  # L0's train cache is its input, not a copy
        _, dlogits = cross_entropy(logits, y[1])
        grads = net.backward(cache, dlogits, params)
        kept = [a.copy() for a in (logits, *grads.values())]

        logits2, cache2 = net.forward(x[2], params, state, train=True)
        grads2 = net.backward(cache2, cross_entropy(logits2, y[2])[1], params)
        assert net._workspace.areas()[Workspace.COLS] is cols
        assert not np.array_equal(grads2["L0.W"], grads["L0.W"])
        for was, now in zip(kept, (logits, *grads.values())):
            assert np.array_equal(was, now)

    def test_warm_net2_step_keeps_one_patch_area(self):
        # no conv keeps its patch matrix from forward to backward: each is built
        # in one shared area, whole at most for the conv whose backward runs
        net, params, state = build_network(get_preset("net2"), seed=40)
        x, y = self.batches(net, 2, 16, seed=41)
        train_step(net, params, state, x[0], y[0])
        logits, cache = net.forward(x[1], params, state, train=True)
        # collected before backward, which drops them from the cache
        inputs = [c for layer, c in zip(net.layers, cache["caches"]) if isinstance(layer, Conv2D)]
        inputs += [c for c in cache["skip_caches"].values() if c is not None]  # projections
        net.backward(cache, cross_entropy(logits, y[1])[1], params)
        areas = net._workspace.areas()
        assert [key for key in areas if key.split(".")[-1] == "cols"] == [Workspace.COLS]
        largest = max(layer.fan_in * 16 * math.prod(shape[1:]) * 4
                      for layer, shape in net.kernels() if isinstance(layer, Conv2D))
        assert largest < 10e6 and areas[Workspace.COLS].nbytes <= largest
        assert len(inputs) == len(net.kernels()) - 1  # every conv: all kernels but the dense
        for conv_input in inputs:
            assert not np.may_share_memory(conv_input, areas[Workspace.TMP])

    @pytest.mark.parametrize("config,batch", [
        pytest.param(get_preset("mnist2"), 4, id="mnist2"),
        pytest.param(get_preset("net2"), 4, id="net2"),
        pytest.param(overlapping_skips_config(), 3, id="overlapping-skips"),
    ])
    def test_rotating_gradient_areas_keep_every_gradient(self, config, batch):
        net, params, state = build_network(config, seed=42)
        x, y = self.batches(net, 2, batch, seed=43)
        for step in range(2):  # cold, then warm: the areas are reused
            logits, cache = net.forward(x[step], params, state, train=True)
            _, dlogits = cross_entropy(logits, y[step])
            want = reference_backward(net, cache, dlogits, params)
            got = net.backward(cache, dlogits, params)
            assert got.keys() == want.keys() == params.keys()
            for name in want:
                assert np.array_equal(bits(got[name]), bits(want[name])), (step, name)
        slots = [key for key in net._workspace.areas() if key.startswith("skip")]
        assert len(slots) == {"mnist2": 0, "net2": 1, "overlap": 2}[config.id]

    @pytest.mark.parametrize("config", [
        pytest.param(get_preset("mnist2"), id="mnist2"),
        pytest.param(get_preset("net2"), id="net2"),
        pytest.param(overlapping_skips_config(), id="overlapping-skips"),
    ])
    def test_backward_consumes_the_cache(self, config):
        # each entry goes once its layer has run backward, freeing what only it held
        net, params, state = build_network(config, seed=46)
        x, y = self.batches(net, 1, 3, seed=47)
        logits, cache = net.forward(x[0], params, state, train=True)
        assert cache["skip_caches"].keys() == net.skips.keys()
        net.backward(cache, cross_entropy(logits, y[0])[1], params)
        assert len(cache["caches"]) == len(net.layers)
        assert all(entry is None for entry in cache["caches"])
        assert cache["skip_caches"] == {}

    def test_warm_net2_step_holds_two_gradient_areas_and_one_skip_slot(self):
        # node gradients live in two shared areas and a skip slot, not one area per layer
        net, params, state = build_network(get_preset("net2"), seed=44)
        x, y = self.batches(net, 2, 16, seed=45)
        for step in range(2):
            train_step(net, params, state, x[step], y[step])
        areas = net._workspace.areas()
        assert not [key for key in areas if key.endswith(".dx")]
        largest = max(16 * math.prod(shape) * 4 for shape in net.node_shapes)
        assert largest == 16 * 16 * 32 * 32 * 4
        assert all(areas[key].nbytes <= largest for key in Workspace.GRADS)
        assert [key for key in areas if key.startswith("skip")] == [Workspace.SKIP.format(0)]
        assert sum(area.nbytes for area in areas.values()) < 26 * 2**20

    def test_backward_on_an_older_cache_raises(self):
        net, params, state = build_network(two_conv_config(), seed=32)
        x, y = self.batches(net, 2, 2, seed=33)
        logits_a, cache_a = net.forward(x[0], params, state, train=True)
        net.forward(x[1], params, state, train=True)
        with pytest.raises(ValueError, match="stale cache"):
            net.backward(cache_a, np.zeros_like(logits_a), params)

    def test_backward_twice_on_one_cache_raises(self):
        net, params, state = build_network(two_conv_config(), seed=34)
        x, _ = self.batches(net, 1, 2, seed=35)
        logits, cache = net.forward(x[0], params, state, train=True)
        net.backward(cache, np.ones_like(logits), params)
        with pytest.raises(ValueError, match="stale cache"):
            net.backward(cache, np.ones_like(logits), params)

    @pytest.mark.parametrize("preset", ["mnist2", "net2"])
    def test_eval_forward_between_leaves_the_train_cache_valid(self, preset):
        nets = [build_network(get_preset(preset), seed=36) for _ in range(2)]
        x, y = self.batches(nets[0][0], 3, 4, seed=37)
        results = []
        for with_eval, (net, params, state) in zip((False, True), nets):
            train_step(net, params, state, x[0], y[0])  # warm buffers
            logits, cache = net.forward(x[1], params, state, train=True)
            if with_eval:
                net.forward(x[2], params, dict(state), train=False)
            _, dlogits = cross_entropy(logits, y[1])
            results.append(net.backward(cache, dlogits, params))
        grads_a, grads_b = results
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name

    def test_layer_first_network_returns_no_workspace_memory(self):
        # the max pool's output lies in its own buffer, and flatten passes it on as the logits
        cfg = NetworkConfig("act-first", (2, 4, 4), 2, [
            LayerSpec("leaky-relu", {}),
            LayerSpec("maxpool", {"size": 4}),
            LayerSpec("flatten", {}),
        ])
        net, params, state = build_network(cfg, seed=38)
        x, y = self.batches(net, 2, 3, seed=39)
        logits, _ = train_step(net, params, state, x[0], y[0])
        kept = logits.copy()
        train_step(net, params, state, x[1], y[1])
        assert np.array_equal(kept, logits)


def preset_convs():
    """(preset, conv layer, input shape) of each distinct conv in the four presets."""
    convs = {}
    for preset in ("mnist2", "net2", "net4", "net1"):
        net = Network(get_preset(preset))
        inputs = [tuple(net.config.input_shape)] + net.node_shapes[:-1]
        found = [(layer, inputs[i]) for i, layer in enumerate(net.layers)
                 if isinstance(layer, Conv2D)]
        found += [(proj, net.node_shapes[src]) for src, proj in net.skips.values() if proj]
        for layer, shape in found:
            key = (layer.out_channels, layer.kernel, layer.stride, layer.pad, shape)
            convs.setdefault(key, (preset, layer, shape))
    return list(convs.values())


# the benchmark's eval batch per preset (net4 and net1 are not benchmarked)
EVAL_BATCH = {"mnist2": 128, "net2": 32, "net4": 32, "net1": 32}
CONVS = [pytest.param(preset, layer, shape, id=f"{preset}-{layer.name}")
         for preset, layer, shape in preset_convs()]


def chunked(monkeypatch, call, n, sample_cols, rows):
    """call() with CHUNK_BYTES set so that a chunked GEMM over n samples runs in
    three or more chunks, the last one partial; returns call()'s result and the
    sample count of each patch matrix built, in order.

    The budget holds step - 1 samples more than a chunk of whole multiples of
    64 columns, which the chunks must not take: on mnist2's 14x14 conv, a
    chunk of 5 samples (980 columns) changed output bits.
    """
    step = 64 // np.gcd(64, sample_cols)
    size = max(s for s in range(step, n, step) if n % s and -(-n // s) >= 3)
    batches = []
    im2col = layers.im2col

    def recording(a, *args):
        batches.append(len(a))
        return im2col(a, *args)

    with monkeypatch.context() as m:
        m.setattr(layers, "CHUNK_BYTES", (size + step - 1) * rows * sample_cols * 4)
        m.setattr(layers, "im2col", recording)
        result = call()
    return result, batches


def check_chunks(batches, sample_cols):
    """The chunks of one chunked GEMM: three or more, of whole multiples of 64
    columns but the last, which is partial."""
    assert len(batches) >= 3 and 0 < batches[-1] < batches[0]
    assert all(b * sample_cols % 64 == 0 for b in batches[:-1])


def one_chunk(monkeypatch, call):
    """call() with a CHUNK_BYTES that holds every patch matrix whole."""
    with monkeypatch.context() as m:
        m.setattr(layers, "CHUNK_BYTES", 1 << 40)
        return call()


class TestChunkedConv:
    """Patch matrices built chunk by chunk give the bits of one whole matrix."""

    def setup(self, layer, shape, batch, seed):
        gen = np.random.default_rng(seed)
        params = layer.init_params(gen, np.float32)
        x = gen.standard_normal((batch,) + shape).astype(np.float32)
        return params, x

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("preset,layer,shape", CONVS)
    def test_eval_forward_matches_train_forward(self, monkeypatch, preset, layer, shape, ragged):
        n = 37 if ragged else EVAL_BATCH[preset]
        params, x = self.setup(layer, shape, n, seed=40)
        want, _ = one_chunk(monkeypatch, lambda: layer.forward(x, params, {}, train=False))
        _, Ho, Wo = layer.out_shape(shape)
        for train, ws in ((True, Workspace()), (False, None)):
            (got, cache), batches = chunked(
                monkeypatch, lambda: layer.forward(x, params, {}, train=train, ws=ws),
                n, Ho * Wo, layer.fan_in)
            check_chunks(batches, Ho * Wo)
            assert got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(want)), train
            assert cache is (x if train else None)

    @pytest.mark.parametrize("preset,layer,shape", CONVS)
    def test_chunked_input_gradient_matches_one_chunk(self, monkeypatch, preset, layer, shape):
        # dW's GEMM takes the whole patch matrix of x, rebuilt; the input gradient of a
        # stride-1 conv that does not widen is a chunked conv of dy, the others scatter
        n = 37
        params, x = self.setup(layer, shape, n, seed=41)
        ws = Workspace()
        y, cache = layer.forward(x, params, {}, train=True, ws=ws)
        dy = np.random.default_rng(42).standard_normal(y.shape).astype(np.float32)
        want_dx, want = one_chunk(monkeypatch, lambda: layer.backward(dy, cache, params, ws=ws))
        want_dx = want_dx.copy()  # the next backward from dy writes its dx into the same area
        _, H, W = shape
        (dx, grads), batches = chunked(monkeypatch, lambda: layer.backward(dy, cache, params, ws=ws),
                                       n, H * W, layer.out_channels * layer.kernel ** 2)
        assert batches[0] == n
        if layer.stride == 1 and layer.out_channels <= shape[0]:
            check_chunks(batches[1:], H * W)
        else:
            assert batches == [n]
        assert np.array_equal(bits(dx), bits(want_dx))
        assert grads.keys() == want.keys()
        for name in want:
            assert np.array_equal(bits(grads[name]), bits(want[name])), name


# the benchmark's train batch per preset (net4 and net1 are not benchmarked)
TRAIN_BATCH = {"mnist2": 64, "net2": 16, "net4": 32, "net1": 16}


@pytest.mark.parametrize("preset,layer,shape", CONVS)
def test_conv_weight_gradient_is_one_gemm(preset, layer, shape):
    # the same BLAS call on the same operands, so the check holds on any BLAS build;
    # a dW summed in another order, such as two column halves, fails it
    gen = np.random.default_rng(46)
    params = layer.init_params(gen, np.float32)
    x = gen.standard_normal((TRAIN_BATCH[preset],) + shape).astype(np.float32)
    for ws in (Workspace(), None):
        y, cache = layer.forward(x, params, {}, train=True, ws=ws)
        dy = gen.standard_normal(y.shape).astype(np.float32)
        _, grads = layer.backward(dy, cache, params, ws=ws)
        cols = reference_im2col(x, layer.kernel, layer.stride, layer.pad)
        dy2 = np.ascontiguousarray(dy.transpose(1, 0, 2, 3)).reshape(layer.out_channels, -1)
        want = (cols @ dy2.T).T.reshape(layer.weight_shape)
        assert np.array_equal(bits(grads[layer.weight_name]), bits(want))


def out_size(H, W, k, stride, pad):
    return (H + 2 * pad - k) // stride + 1, (W + 2 * pad - k) // stride + 1


def reference_im2col(x, k, stride, pad):
    """The patch matrix from np.pad and one strided-window copy per tap."""
    N, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho, Wo = out_size(H, W, k, stride, pad)
    cols = np.empty((C, k, k, N, Ho, Wo), x.dtype)
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i : i + stride * (Ho - 1) + 1 : stride, j : j + stride * (Wo - 1) + 1 : stride]
            cols[:, i, j] = tap.transpose(1, 0, 2, 3)
    return cols.reshape(C * k * k, N * Ho * Wo)


def reference_col2im(dcols, x_shape, k, stride, pad):
    """A conv's input gradient, scattered tap by tap into a +0.0 padded buffer,
    and the entries where a NaN tap met a NaN partial sum."""
    N, C, H, W = x_shape
    Ho, Wo = out_size(H, W, k, stride, pad)
    dxp = np.zeros((C, N, H + 2 * pad, W + 2 * pad), dcols.dtype)
    meets = np.zeros(dxp.shape, bool)
    taps = dcols.reshape(C, k, k, N, Ho, Wo)
    for i in range(k):
        for j in range(k):
            rows = slice(i, i + stride * (Ho - 1) + 1, stride)
            cols = slice(j, j + stride * (Wo - 1) + 1, stride)
            meets[:, :, rows, cols] |= np.isnan(dxp[:, :, rows, cols]) & np.isnan(taps[:, i, j])
            dxp[:, :, rows, cols] += taps[:, i, j]
    return tuple(a[:, :, pad : pad + H, pad : pad + W].transpose(1, 0, 2, 3) for a in (dxp, meets))


def special_values(gen, shape, dtype):
    """Normal draws, about a third of them replaced by +-0.0, NaNs (two payloads),
    +-inf and subnormals."""
    dtype = np.dtype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    payload = np.array(0x7FC00123 if dtype.itemsize == 4 else 0x7FF8000000000123,
                       f"u{dtype.itemsize}").view(dtype)
    pool = np.array([0.0, -0.0, np.nan, payload, np.inf, -np.inf, tiny, -3 * tiny], dtype)
    a = gen.standard_normal(shape).astype(dtype)
    hit = gen.random(shape) < 0.35
    a[hit] = gen.choice(pool, hit.sum())
    return a


def wrapped_columns(k, stride, pad, W, Wo):
    """(tap j, mask over output columns wo) where column stride*wo + j - pad lies outside the row."""
    col = stride * np.arange(Wo)
    return [(j, (col + j - pad < 0) | (col + j - pad >= W)) for j in range(k)]


def dirty_workspace(key):
    """A Workspace whose areas hold NaN, so that an entry left unwritten shows.

    Each area holds 2 MiB, more than any case here asks for, so none is
    reallocated.
    """
    ws = Workspace()
    for area in (Workspace.TMP, key):
        ws.array(area, (1 << 18,), np.float64).fill(np.nan)
    return ws


SHAPES = [(7, 6), (1, 5), (5, 1), (2, 2)]
# (kernel, stride, pad): same convs first, where k = 7 on a 2-wide plane has
# an edge wider than the row (pad 3 > W); then strided convs, 1x1 projections
# (pad 0: a plane with no margin), a valid conv, and over-padded convs whose
# output is wider than their input (pitch P = Wo > W), at strides 1 to 3
GEOMETRIES = [(3, 1, 1), (5, 1, 2), (7, 1, 3), (3, 2, 1), (3, 2, 0), (1, 2, 0), (1, 1, 0),
              (3, 1, 0), (1, 1, 1), (1, 2, 1), (3, 1, 2), (5, 3, 2)]
PLANE_CASES = [
    pytest.param(k, stride, pad, H, W,
                 id=f"{k}-{H}-{W}" if k > 1 and (stride, pad) == (1, k // 2) else f"k{k}s{stride}p{pad}-{H}-{W}")
    for k, stride, pad in GEOMETRIES for H, W in SHAPES if min(out_size(H, W, k, stride, pad)) >= 1
]


class TestSamePlane:
    """im2col and col2im, whose one plane path serves every conv geometry,
    against tap-by-tap references, bit for bit: +-0.0, NaN payloads, +-inf
    and subnormals, in float32 and float64, for planes narrower than the pad
    and pitches wider than the input.  One exception: a sum where two NaNs
    meet is a NaN that carries one of their payloads, and which one depends
    on how numpy splits the add's run, so the (N, C) = (1, 2) cases compare
    those entries by np.isnan."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("N,C", [(1, 1), (3, 4), (1, 2)])
    @pytest.mark.parametrize("k,stride,pad,H,W", PLANE_CASES)
    def test_im2col(self, k, stride, pad, H, W, N, C, dtype):
        gen = np.random.default_rng(k * 1000 + H * 100 + W * 10 + N + C)
        x = special_values(gen, (N, C, H, W), dtype)
        cols = layers.im2col(x, k, stride, pad, dirty_workspace(Workspace.COLS))
        assert np.array_equal(bits(cols), bits(reference_im2col(x, k, stride, pad)))

    @pytest.mark.parametrize("wrapped_fill", ["special", "-0.0"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("N,C", [(1, 1), (3, 4), (1, 2)])
    @pytest.mark.parametrize("k,stride,pad,H,W", PLANE_CASES)
    def test_col2im(self, k, stride, pad, H, W, N, C, dtype, wrapped_fill):
        gen = np.random.default_rng(k * 1000 + H * 100 + W * 10 + N + C + 7)
        Ho, Wo = out_size(H, W, k, stride, pad)
        dcols = special_values(gen, (C * k * k, N * Ho * Wo), dtype)
        after = dcols.copy()  # col2im overwrites the wrapped entries with -0.0
        for a in (dcols, after) if wrapped_fill == "-0.0" else (after,):
            taps = a.reshape(C, k, k, N, Ho, Wo)
            for j, wrapped in wrapped_columns(k, stride, pad, W, Wo):
                taps[:, :, j, :, :, wrapped] = -0.0
        with np.errstate(invalid="ignore"):  # inf + -inf
            want, meets = reference_col2im(dcols, (N, C, H, W), k, stride, pad)
            got = layers.col2im(dcols, (N, C, H, W), k, stride, pad, dirty_workspace("c"))
        assert got.shape == (N, C, H, W)
        if (N, C) == (1, 2):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            got, want = np.where(meets, np.nan, got), np.where(meets, np.nan, want)
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(dcols), bits(after))

    @pytest.mark.parametrize("k,stride,pad", [(1, 2, 0), (3, 1, 0), (3, 1, 1)])
    def test_im2col_of_views(self, k, stride, pad):
        # every pad copies x into the plane, so a view with gaps or zero strides reads as x
        x = special_values(np.random.default_rng(44), (2, 3, 8, 12), np.float32)[:, :, ::2, 1::3]
        for a in (x, np.broadcast_to(x[:1], x.shape)):
            cols = layers.im2col(a, k, stride, pad, dirty_workspace(Workspace.COLS))
            assert np.array_equal(bits(cols), bits(reference_im2col(a, k, stride, pad)))

    @pytest.mark.parametrize("preset,layer,shape", CONVS)
    def test_preset_patch_matrices(self, preset, layer, shape):
        x = special_values(np.random.default_rng(43), (2,) + shape, np.float32)
        k, stride, pad = layer.kernel, layer.stride, layer.pad
        cols = layers.im2col(x, k, stride, pad, dirty_workspace(Workspace.COLS))
        assert np.array_equal(bits(cols), bits(reference_im2col(x, k, stride, pad)))


class TestGradientChecks:
    """Analytic backward vs central differences, double precision."""

    def _check_layer(self, layer, x, params, state, seed, train=True, n=100):
        dy_gen = np.random.default_rng(seed)
        y0, _ = layer.forward(x, params, state, train)
        R = dy_gen.normal(size=y0.shape)  # fixed projection makes the loss scalar

        def loss():
            y, _ = layer.forward(x, params, dict(state), train)
            return float((y * R).sum())

        y, cache = layer.forward(x, params, dict(state), train)
        dx, grads = layer.backward(R, cache, params)
        worst = probe_gradient(loss, x, dx, n, seed + 1)
        for k, g in grads.items():
            worst = max(worst, probe_gradient(loss, params[k], g, n, seed + 2))
        assert worst < 1e-4, f"worst relative error {worst}"

    def test_conv2d(self):
        gen = np.random.default_rng(10)
        x = gen.normal(size=(2, 3, 6, 6))
        layer = Conv2D("L0", 3, 4, kernel=3, stride=1, pad=1)
        params = layer.init_params(gen, np.float64)
        self._check_layer(layer, x, params, {}, seed=11)

    def test_conv2d_strided(self):
        gen = np.random.default_rng(12)
        x = gen.normal(size=(2, 3, 7, 7))
        layer = Conv2D("L0", 3, 2, kernel=3, stride=2, pad=0)
        params = layer.init_params(gen, np.float64)
        self._check_layer(layer, x, params, {}, seed=13)

    def test_batchnorm_train_mode(self):
        gen = np.random.default_rng(14)
        x = gen.normal(size=(4, 3, 5, 5))
        layer = BatchNorm2D("L0", 3)
        params = layer.init_params(gen, np.float64)
        params["L0.gamma"] = gen.normal(size=3) + 1.0
        params["L0.beta"] = gen.normal(size=3)
        self._check_layer(layer, x, params, layer.init_state(np.float64), seed=15)

    def test_leaky_relu(self):
        gen = np.random.default_rng(16)
        x = gen.normal(size=(3, 4, 5, 5))
        layer = LeakyReLU("L0")
        self._check_layer(layer, x, {}, {}, seed=17)

    def test_maxpool(self):
        gen = np.random.default_rng(18)
        x = gen.normal(size=(3, 2, 6, 6))
        layer = MaxPool2D("L0", size=2)
        self._check_layer(layer, x, {}, {}, seed=19)

    def test_dense(self):
        gen = np.random.default_rng(20)
        x = gen.normal(size=(4, 7))
        layer = Dense("L0", 7, 3)
        params = layer.init_params(gen, np.float64)
        self._check_layer(layer, x, params, {}, seed=21)

    def test_whole_network_with_skip(self):
        layers = [
            LayerSpec("conv2d", {"out_channels": 4, "kernel": 3, "pad": 1}),
            LayerSpec("batchnorm", {}),
            LayerSpec("leaky-relu", {}),
            LayerSpec("conv2d", {"out_channels": 6, "kernel": 3, "stride": 2, "pad": 1}),
            LayerSpec("batchnorm", {}),
            LayerSpec("leaky-relu", {}),
            LayerSpec("flatten", {}),
            LayerSpec("dense", {"out_features": 3}),
        ]
        cfg = NetworkConfig("skipnet", (2, 6, 6), 3, layers, [SkipSpec(2, 4)])
        net = Network(cfg)
        params = float64(net.init_params(22))
        state = float64(net.init_state())
        gen = np.random.default_rng(23)
        x = gen.normal(size=(2, 2, 6, 6))
        labels = gen.integers(0, 3, size=2)

        def loss():
            logits, _ = net.forward(x, params, dict(state), train=True)
            val, _ = cross_entropy(logits, labels)
            return val

        logits, cache = net.forward(x, params, state, train=True)
        _, dlogits = cross_entropy(logits, labels)
        grads = net.backward(cache, dlogits, params)
        worst = 0.0
        for k in sorted(grads):
            worst = max(worst, probe_gradient(loss, params[k], grads[k], 40, seed=25))
        assert worst < 1e-4, f"worst relative error {worst}"


class TestLayerProperties:
    def test_batchnorm_normalizes_batch(self):
        gen = np.random.default_rng(30)
        x = (gen.normal(size=(8, 3, 6, 6)) * 3 + 5).astype(np.float64)
        layer = BatchNorm2D("L0", 3)
        params = layer.init_params(gen, np.float64)
        y, _ = layer.forward(x, params, layer.init_state(np.float64), train=True)
        mean = y.mean(axis=(0, 2, 3))
        var = y.var(axis=(0, 2, 3))
        assert np.abs(mean).max() < 1e-10
        assert np.abs(var - 1).max() < 1e-4  # eps-induced shrinkage only

    def test_leaky_relu_exactness(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 3.0])
        layer = LeakyReLU("L0")
        y, _ = layer.forward(x, {}, {}, False)
        assert np.array_equal(y, np.array([-0.02, -0.005, 0.0, 0.5, 3.0]))

    @pytest.mark.parametrize("layer", [BatchNorm2D("L0", 3), LeakyReLU("L0")], ids=["batchnorm", "leaky-relu"])
    def test_eval_forward_keeps_no_cache(self, layer):
        # backward runs only on train caches, so an eval forward builds none
        x = np.random.default_rng(33).normal(size=(2, 3, 4, 4))
        params, state = layer.init_params(None, np.float64), layer.init_state(np.float64)
        y, cache = layer.forward(x, params, state, False)
        assert cache is None and y.shape == x.shape

    def test_maxpool_requires_divisible_input(self):
        layer = MaxPool2D("L0", size=2)
        with pytest.raises(ConfigError):
            layer.out_shape((3, 7, 8))


def bits(a):
    """The IEEE bit patterns of a float array, so that -0.0 and NaN payloads compare."""
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


class TestMaxPoolRouting:
    @pytest.mark.parametrize("s", [2, 4])
    def test_constant_windows_route_to_first_element(self, s):
        gen = np.random.default_rng(40)
        # every window is constant, at a different level per window
        x = np.repeat(np.repeat(gen.normal(size=(2, 3, 2, 3)), s, axis=2), s, axis=3)
        layer = MaxPool2D("L0", size=s)
        y, cache = layer.forward(x, {}, {}, True)
        assert np.array_equal(y, x[:, :, ::s, ::s])
        dy = gen.normal(size=y.shape)
        dx, _ = layer.backward(dy, cache, {})
        expected = np.zeros_like(x)
        expected[:, :, ::s, ::s] = dy
        assert np.array_equal(bits(dx), bits(expected))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_signed_zero_and_nan_windows(self, dtype):
        nan = np.array(np.nan, dtype)
        windows = [
            ([[-0.0, 0.0], [0.0, 0.0]], 0),  # +0 == -0: the first one wins, as -0.0
            ([[0.0, -0.0], [-0.0, -0.0]], 0),
            ([[-1.0, 0.0], [-0.0, -0.0]], 1),
            ([[1.0, 2.0], [2.0, 2.0]], 1),
            ([[1.0, -nan], [nan, np.inf]], 1),  # the first NaN, with its sign bit
            ([[1.0, nan], [-nan, 2.0]], 1),
            ([[-np.inf, -np.inf], [-np.inf, -np.inf]], 0),
            ([[-np.inf, 3.0], [3.0, 5.0]], 3),
        ]
        x = np.array([w for w, _ in windows], dtype)[:, None]
        first = [i for _, i in windows]
        layer = MaxPool2D("L0", size=2)
        y, cache = layer.forward(x, {}, {}, True)
        flat = x.reshape(len(windows), 4)
        assert np.array_equal(bits(y.ravel()), bits(flat[np.arange(len(windows)), first]))
        # an infinite or negative gradient lands on the first maximum only:
        # the other elements get +0.0, not NaN (0*inf) or -0.0
        dy = np.array([np.inf, -np.inf, -2.0, 3.0, -1.0, np.inf, 4.0, -0.0], dtype)
        dx, _ = layer.backward(dy.reshape(y.shape), cache, {})
        expected = np.zeros((len(windows), 4), dtype)
        expected[np.arange(len(windows)), first] = dy
        assert np.array_equal(bits(dx.reshape(len(windows), 4)), bits(expected))


class TestLeakyReLUBits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.01, 0.3])
    def test_matches_select_reference(self, dtype, slope):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array(
            [-0.0, 0.0, -tiny, tiny, -3 * tiny, np.nan, -np.nan, np.inf, -np.inf, -2.5, 7.0],
            dtype,
        )
        assert (np.asarray(slope, dtype) * x[2]) == 0  # slope*x underflows to -0.0
        layer = LeakyReLU("L0")
        layer.slope = slope  # an instance value in place of the class constant
        y, cache = layer.forward(x, {}, {}, True)
        neg = x < 0
        assert np.array_equal(bits(y), bits(np.where(neg, np.asarray(slope, dtype) * x, x)))
        dy = x[::-1].copy()  # the same special values as gradients
        dx, _ = layer.backward(dy, cache, {})
        assert np.array_equal(bits(dx), bits(np.where(neg, np.asarray(slope, dtype) * dy, dy)))

    @pytest.mark.parametrize("slope", [0, 1, 2, -0.1, float("nan"), "0.1"])
    def test_slope_outside_unit_interval_rejected(self, slope):
        cfg = two_conv_config()
        cfg.layers[2].args["slope"] = slope
        with pytest.raises(ConfigError, match="slope"):
            Network(cfg)


def reference_batchnorm(x, g, b, dy, eps):
    """The textbook train-mode forward and backward, one expression each."""
    c = (None, slice(None), None, None)
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[c]) * invstd[c]
    y = g[c] * xhat + b[c]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    dgamma, dbeta = (dy * xhat).sum(axis=(0, 2, 3)), dy.sum(axis=(0, 2, 3))
    dx = (g * invstd / m)[c] * (m * dy - dbeta[c] - xhat * dgamma[c])
    return y, mean, var, dx, dgamma, dbeta


class TestBatchNormBits:
    @pytest.mark.parametrize("shape", [(8, 3, 6, 6), (64, 8, 28, 28), (3, 5, 1, 1)])
    def test_train_mode_matches_reference_float32(self, shape):
        gen = np.random.default_rng(50)
        C = shape[1]
        x = (gen.normal(size=shape) * 3 + 7).astype(np.float32)
        dy = gen.normal(size=shape).astype(np.float32)
        g = (gen.normal(size=C) + 1).astype(np.float32)
        b = gen.normal(size=C).astype(np.float32)
        layer = BatchNorm2D("L0", C)
        state = layer.init_state(np.float32)
        y, cache = layer.forward(x, {"L0.gamma": g, "L0.beta": b}, state, True)
        dx, grads = layer.backward(dy, cache, {"L0.gamma": g, "L0.beta": b})
        ry, mean, var, rdx, rdg, rdb = reference_batchnorm(x, g, b, dy, layer.eps)
        assert np.array_equal(bits(y), bits(ry))
        assert np.array_equal(bits(dx), bits(rdx))
        assert np.array_equal(bits(grads["L0.gamma"]), bits(rdg))
        assert np.array_equal(bits(grads["L0.beta"]), bits(rdb))
        rm, rv = np.zeros(C, np.float32), np.ones(C, np.float32)
        rm += layer.momentum * (mean - rm)
        rv += layer.momentum * (var - rv)
        assert np.array_equal(bits(state["L0.running_mean"]), bits(rm))
        assert np.array_equal(bits(state["L0.running_var"]), bits(rv))


class TestBuildNetwork:
    def test_same_seed_bitwise_identical(self):
        cfg = two_conv_config()
        _, p1, _ = build_network(cfg, seed=99)
        _, p2, _ = build_network(cfg, seed=99)
        assert sorted(p1) == sorted(p2)
        for k in p1:
            assert np.array_equal(p1[k], p2[k]), k

    def test_kaiming_std(self):
        layer = Conv2D("L0", 8, 64, kernel=5)  # fan-in 200, 320k samples
        params = layer.init_params(np.random.default_rng(123), np.float64)
        std = params["L0.W"].std()
        target = np.sqrt(2.0 / 200)
        assert abs(std - target) / target < 0.2

    def test_net1_preset_structure(self):
        cfg = get_preset("net1")
        convs = [s for s in cfg.layers if s.kind == "conv2d"]
        assert len(convs) == 7
        assert max(s.args["out_channels"] for s in convs) == 64

    def test_inconsistent_config_rejected(self):
        cfg = two_conv_config()
        cfg.layers[4].args["in_channels"] = 99
        with pytest.raises(ConfigError, match="L4: conv2d argument 'in_channels' is fixed by the input shape"):
            Network(cfg)

    @pytest.mark.parametrize(
        "index, key, value, kind",
        [(0, "in_channels", 4, "conv2d"), (1, "channels", 5, "batchnorm"), (8, "in_features", 96, "dense")],
    )
    def test_shape_fixed_arg_rejected_even_when_consistent(self, index, key, value, kind):
        # the input shape leaves these arguments one value, which the network supplies
        cfg = two_conv_config()
        cfg.layers[index].args[key] = value
        with pytest.raises(ConfigError, match=f"L{index}: {kind} argument '{key}' is fixed by the input shape"):
            Network(cfg)

    @pytest.mark.parametrize(
        "index, key, kind", [(0, "out_channels", "conv2d"), (0, "kernel", "conv2d"), (3, "size", "maxpool"),
                             (8, "out_features", "dense")],
    )
    def test_missing_layer_arg_rejected(self, index, key, kind):
        # a conv spec without "kernel" once raised KeyError
        cfg = two_conv_config()
        del cfg.layers[index].args[key]
        with pytest.raises(ConfigError, match=f"L{index}: {kind} needs argument '{key}'"):
            Network(cfg)

    @pytest.mark.parametrize(
        "spec",
        [LayerSpec("conv2d", {"out_channels": 2, "kernel": 1}), LayerSpec("maxpool", {"size": 2}),
         LayerSpec("batchnorm", {})],
        ids=["conv2d", "maxpool", "batchnorm"],
    )
    def test_feature_map_layer_after_flatten_rejected(self, spec):
        # conv2d and maxpool once failed to unpack the shape; batchnorm built, then
        # raised numpy's AxisError in the first train forward
        cfg = two_conv_config()
        cfg.layers.insert(8, spec)
        with pytest.raises(
            ConfigError, match=rf"L8: {spec.kind} needs a \(C, H, W\) feature map, got shape \(96,\)"
        ):
            Network(cfg)

    @staticmethod
    def skip_config(skips, size=8):
        """Four convs on a (2, size, size) input, then a dense head, with the given skips."""
        layers = [
            LayerSpec("conv2d", {"out_channels": 4, "kernel": 3, "pad": 1}),  # (4, size, size)
            LayerSpec("leaky-relu", {}),  # (4, size, size)
            LayerSpec("conv2d", {"out_channels": 4, "kernel": 3, "pad": 1}),  # (4, size, size)
            LayerSpec("conv2d", {"out_channels": 6, "kernel": 3, "pad": 1}),  # (6, size, size)
            LayerSpec("conv2d", {"out_channels": 6, "kernel": 3, "stride": 2, "pad": 1}),  # (6, 4, 4)
            LayerSpec("flatten", {}),
            LayerSpec("dense", {"out_features": 3}),
        ]
        return NetworkConfig("skips", (2, size, size), 3, layers,
                             [SkipSpec(src, dst) for src, dst in skips])

    @pytest.mark.parametrize(
        "skips, size, message",
        [([(2, 2)], 8, r"skip 0: invalid endpoints 2->2"),
         ([(3, 1)], 8, r"skip 0: invalid endpoints 3->1"),
         ([(0, 7)], 8, r"skip 0: invalid endpoints 0->7"),
         ([(0, 2), (1, 2)], 8, r"skip 1: layer 2 already receives a skip"),
         ([(1, 5)], 8, r"skip 0: endpoints must be feature maps"),
         ([(1, 4)], 7, r"skip 0: shapes \(4, 7, 7\) -> \(6, 4, 4\) are incompatible")],
        ids=["src-is-dst", "src-after-dst", "dst-past-the-end", "second-skip-into-a-layer",
             "dst-after-flatten", "7x7-to-4x4"],
    )
    def test_bad_skip_rejected(self, skips, size, message):
        with pytest.raises(ConfigError, match=message):
            Network(self.skip_config(skips, size))

    @pytest.mark.parametrize("src, dst, stride", [(1, 4, 2), (2, 3, 1)], ids=["8x8-to-4x4", "4-to-6-channels"])
    def test_projection_stride(self, src, dst, stride):
        net = Network(self.skip_config([(src, dst)]))
        got_src, proj = net.skips[dst]
        assert got_src == src
        assert (proj.name, proj.kernel, proj.stride, proj.pad, proj.bias) == ("S0", 1, stride, 0, False)
        assert proj.out_shape(net.node_shapes[src]) == net.node_shapes[dst]
        assert net.weight_names[-1] == "S0.W"

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_preset_convs_feed_batchnorm_and_have_no_bias(self, preset):
        # batch norm subtracts the batch mean, which would cancel a conv bias
        net = Network(get_preset(preset))
        for i, layer in enumerate(net.layers):
            if isinstance(layer, Conv2D):
                assert isinstance(net.layers[i + 1], BatchNorm2D), layer.name
        dense = [layer.name for layer in net.layers if isinstance(layer, Dense)]
        assert [n for n in net.param_names if n.endswith(".b")] == [f"{n}.b" for n in dense]

    def test_output_must_be_classes_wide(self):
        cfg = two_conv_config()
        cfg.classes = 4  # the dense head still gives 3
        with pytest.raises(ConfigError, match=r"network output shape \(3,\) does not match 4 classes"):
            Network(cfg)

    def test_check_params_names_a_missing_or_misshapen_parameter(self):
        net, params, _ = build_network(two_conv_config(), seed=0)
        net.check_params(params)
        with pytest.raises(ConfigError, match="missing parameter L1.gamma"):
            net.check_params({k: v for k, v in params.items() if k != "L1.gamma"})
        with pytest.raises(ConfigError, match=r"parameter L8.b has shape \(4,\), expected \(3,\)"):
            net.check_params({**params, "L8.b": np.zeros(4)})

    def test_equal_shapes_skip_without_projection(self):
        net = Network(self.skip_config([(1, 2)]))
        assert net.skips == {2: (1, None)}
        assert net.weight_names == ["L0.W", "L2.W", "L3.W", "L4.W", "L6.W"]

    def test_unknown_preset_rejected(self):
        # once a KeyError
        with pytest.raises(ConfigError, match=r"unknown preset 'net3'; available: \['mnist2', 'net1', 'net2', 'net4'\]"):
            get_preset("net3")

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ConfigError, match="has no layers"):
            Network(NetworkConfig("e", (1, 4, 4), 3, []))

    @pytest.mark.parametrize(
        "index, key, kind",
        [(0, "strides", "conv2d"), (1, "momentun", "batchnorm"), (2, "negative_slope", "leaky-relu"),
         (3, "stride", "maxpool"), (7, "start_dim", "flatten"), (8, "use_bias", "dense"),
         (0, "bias", "conv2d"), (1, "eps", "batchnorm"), (2, "slope", "leaky-relu"),
         (1, "momentum", "batchnorm")],
    )
    def test_unknown_layer_args_rejected(self, index, key, kind):
        # a misspelled "strides" once built a stride-1 conv without a word
        cfg = two_conv_config()
        cfg.layers[index].args[key] = 2
        with pytest.raises(ConfigError, match=f"L{index}: unknown {kind} argument '{key}'"):
            Network(cfg)

    def test_unknown_layer_kind_rejected(self):
        cfg = two_conv_config()
        cfg.layers[2] = LayerSpec("relu", {})
        with pytest.raises(ConfigError, match="unknown layer kind 'relu'"):
            Network(cfg)

    @pytest.mark.parametrize("args", [{"out_features": 3}, {"in_features": 96, "out_features": 3}])
    def test_dense_on_a_feature_map_rejected(self, args):
        cfg = two_conv_config()
        cfg.layers[7] = LayerSpec("dense", args)  # in place of the flatten
        with pytest.raises(ConfigError, match=r"L7: dense needs flattened input, got shape \(6, 4, 4\)"):
            Network(cfg)

    @pytest.mark.parametrize(
        "index, key, value, match",
        [
            (0, "stride", 0, "stride"),  # was a ZeroDivisionError in out_shape
            (0, "pad", -1, "pad"),  # built, then failed in np.pad at the first forward
            (0, "kernel", 3.0, "kernel"),  # built float node shapes
            (0, "kernel", 0, "kernel"),
            (3, "size", 2.0, "pool size"),
            (3, "size", 1, "pool size"),
            (1, "eps", 0.0, "eps"),  # NaN on a constant channel
            (1, "eps", -1e-5, "eps"),
            (1, "eps", float("inf"), "eps"),
            (1, "eps", float("nan"), "eps"),
            (1, "momentum", 2, "momentum"),
            (1, "momentum", -0.1, "momentum"),
            (1, "momentum", float("nan"), "momentum"),
            (0, "kernel", 11, "L0: kernel does not fit 8x8 input"),  # 11 > 8 + 2 * pad
        ],
    )
    def test_bad_layer_args_rejected_at_build(self, index, key, value, match):
        cfg = two_conv_config()
        cfg.layers[index].args[key] = value
        with pytest.raises(ConfigError, match=match):
            Network(cfg)

    @pytest.mark.parametrize(
        "key, value",
        [("out_features", 3.0), ("out_features", 0), ("in_features", 96.0),
         ("in_features", -96)],
    )
    def test_bad_dense_args_rejected_at_build(self, key, value):
        # a float out_features once built the node shape (3.0,) and failed in init_params
        cfg = two_conv_config()
        cfg.layers[8].args[key] = value
        with pytest.raises(ConfigError, match=key):
            Network(cfg)

    @pytest.mark.parametrize(
        "index, key, value",
        [(3, "size", np.int64(2)), (0, "stride", np.int32(1))],
    )
    def test_edge_layer_args_accepted(self, index, key, value):
        cfg = two_conv_config()
        cfg.layers[index].args[key] = value
        Network(cfg)

    @pytest.mark.parametrize(
        "make, match",
        [(lambda: Conv2D("L0", 2.0, 4, kernel=3), "in_channels"), (lambda: Conv2D("L0", 0, 4, kernel=3), "in_channels"),
         (lambda: Dense("L0", 96.0, 3), "in_features"), (lambda: Dense("L0", -96, 3), "in_features")],
        ids=["conv-float", "conv-zero", "dense-float", "dense-negative"],
    )
    def test_bad_shape_fixed_args_rejected_by_the_layer(self, make, match):
        # a network supplies these from the input shape; a layer built directly checks them itself
        with pytest.raises(ConfigError, match=match):
            make()


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((4, 7))
        loss, _ = cross_entropy(logits, np.array([0, 1, 2, 3]))
        assert abs(loss - np.log(7)) < 1e-12

    def test_confident_correct(self):
        logits = np.full((2, 5), -50.0)
        logits[0, 2] = 50.0
        logits[1, 4] = 50.0
        loss, _ = cross_entropy(logits, np.array([2, 4]))
        assert loss < 1e-12

    def test_matches_direct_formula(self):
        gen = np.random.default_rng(31)
        logits = gen.normal(size=(16, 10)) * 3
        labels = gen.integers(0, 10, size=16)
        loss, grad = cross_entropy(logits, labels)
        # direct summation oracle
        ref_loss = 0.0
        ref_grad = np.zeros_like(logits)
        for i in range(16):
            p = np.exp(logits[i]) / np.exp(logits[i]).sum()
            ref_loss += -np.log(p[labels[i]])
            ref_grad[i] = p
            ref_grad[i, labels[i]] -= 1
        ref_loss /= 16
        ref_grad /= 16
        assert abs(loss - ref_loss) < 1e-10
        assert np.abs(grad - ref_grad).max() < 1e-12

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(32)
        logits = gen.normal(size=(6, 4))
        labels = gen.integers(0, 4, size=6)
        _, grad = cross_entropy(logits, labels)
        worst = probe_gradient(
            lambda: cross_entropy(logits, labels)[0], logits, grad, 24, seed=33, h=1e-5
        )
        assert worst < 1e-4

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_label_count_must_match_the_batch(self):
        with pytest.raises(DataError, match=r"labels shape \(3,\) does not match batch 2"):
            cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [0.0, 1.0], [True, False]],
                             ids=["fractional", "float", "bool"])
    def test_non_integer_labels_rejected(self, labels):
        # float and bool labels raised a bare IndexError
        with pytest.raises(DataError, match="integer dtype"):
            cross_entropy(np.zeros((2, 3)), np.array(labels))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], np.array([1.0, -2.0]))
        assert state.t == 1

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params)
        adam_step(params, {"w": np.array([0.5, -3.0, 10.0])}, state, lr=1e-2)
        # bias-corrected first step is lr * g/(|g| + eps') ~ +-lr
        assert np.abs(np.abs(params["w"]) - 1e-2).max() < 1e-6

    def test_five_step_trace_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        grads = [0.3, -1.2, 0.7, 0.0, 2.5]
        params = {"w": np.array([0.1])}
        state = AdamState(params)
        # hand-computed reference recurrence
        w, m, v = 0.1, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            adam_step(params, {"w": np.array([g])}, state, lr)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            assert abs(params["w"][0] - w) < 1e-10

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params)
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(4)}, state, lr=0.1)

    def test_lr_must_be_positive(self):
        params = {"w": np.zeros(1)}
        with pytest.raises(ValueError):
            adam_step(params, {"w": np.zeros(1)}, AdamState(params), lr=0.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_lr_leaves_params_and_state_untouched(self, lr):
        # a NaN rate wrote NaN into every parameter, and inf wrote -inf
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState(params)
        adam_step(params, {"w": np.array([0.5, 0.25])}, state, lr=0.1)
        w, t, m, v = params["w"].copy(), state.t, state.m["w"].copy(), state.v["w"].copy()
        with pytest.raises(ConfigError, match="lr must be > 0 and finite"):
            adam_step(params, {"w": np.array([3.0, -1.0])}, state, lr)
        assert state.t == t
        for was, now in ((w, params["w"]), (m, state.m["w"]), (v, state.v["w"])):
            np.testing.assert_array_equal(now, was)
