import numpy as np
import pytest

from conftest import probe_gradient
from shiftnn.errors import ConfigError, NumericError
from shiftnn.nn import layers
from shiftnn.nn.layers import Workspace
from shiftnn.nn import (
    AdamState,
    BatchNorm2D,
    Conv2D,
    Dense,
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


def naive_conv2d(x, w, b, stride, pad):
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
                    y[n, f, i, j] = acc + b[f]
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
    return NetworkConfig("twoconv", "VGG", in_shape, classes, layers, [])


class TestForward:
    def test_identity_conv(self):
        layer = Conv2D("L0", 1, 1, kernel=1)
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        params = {"L0.W": np.ones((1, 1, 1, 1)), "L0.b": np.zeros(1)}
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
        cfg = NetworkConfig(
            "convonly",
            "VGG",
            (4, 8, 8),
            6 * 8 * 8 // 64,
            [],
            [],
        )
        # check the layer directly on both convs of a small net
        gen = np.random.default_rng(42)
        x = gen.normal(size=(2, 4, 8, 8)).astype(np.float32)
        w1 = gen.normal(size=(5, 4, 3, 3)).astype(np.float32)
        b1 = gen.normal(size=5).astype(np.float32)
        conv1 = Conv2D("L0", 4, 5, kernel=3, stride=1, pad=1)
        y1, _ = conv1.forward(x, {"L0.W": w1, "L0.b": b1}, {}, False)
        ref1 = naive_conv2d(x.astype(np.float64), w1.astype(np.float64), b1.astype(np.float64), 1, 1)
        assert np.abs(y1 - ref1).max() <= 1e-5 * max(1.0, np.abs(ref1).max())

        w2 = gen.normal(size=(3, 5, 3, 3)).astype(np.float32)
        b2 = gen.normal(size=3).astype(np.float32)
        conv2 = Conv2D("L1", 5, 3, kernel=3, stride=2, pad=0)
        y2, _ = conv2.forward(y1, {"L1.W": w2, "L1.b": b2}, {}, False)
        ref2 = naive_conv2d(ref1, w2.astype(np.float64), b2.astype(np.float64), 2, 0)
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
        dx, grads = net.backward(cache, np.zeros_like(logits), params)
        assert np.array_equal(dx, np.zeros_like(x))
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

    def test_eval_forward_keeps_no_cache(self):
        # net2 has identity and projection skips, which an eval forward still adds
        net, params, state = build_network(get_preset("net2"), seed=7)
        x = np.random.default_rng(8).normal(size=(1, 3, 32, 32)).astype(np.float32)
        logits, cache = net.forward(x, params, dict(state), train=False)
        assert cache is None
        with pytest.raises(ValueError):
            net.backward(cache, np.zeros_like(logits), params)


def train_step(net, params, state, x, labels):
    """One train forward and backward: (logits, input gradient, parameter gradients)."""
    logits, cache = net.forward(x, params, state, train=True)
    _, dlogits = cross_entropy(logits, labels)
    dx, grads = net.backward(cache, dlogits, params)
    return logits, dx, grads


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
        logits, cache = net.forward(x[1], params, state, train=True)
        cols = cache["caches"][0][0]  # L0's patch matrix
        _, dlogits = cross_entropy(logits, y[1])
        dx, grads = net.backward(cache, dlogits, params)
        kept = [a.copy() for a in (logits, dx, *grads.values())]

        logits2, cache2 = net.forward(x[2], params, state, train=True)
        cols2 = cache2["caches"][0][0]
        assert cols2.__array_interface__["data"][0] == cols.__array_interface__["data"][0]
        _, grads2 = net.backward(cache2, cross_entropy(logits2, y[2])[1], params)
        assert not np.array_equal(grads2["L0.W"], grads["L0.W"])
        for was, now in zip(kept, (logits, dx, *grads.values())):
            assert np.array_equal(was, now)

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
        (dx_a, grads_a), (dx_b, grads_b) = results
        assert np.array_equal(dx_a, dx_b)
        assert grads_a.keys() == grads_b.keys()
        for name in grads_a:
            assert np.array_equal(grads_a[name], grads_b[name]), name

    def test_layer_first_network_returns_no_workspace_memory(self):
        # a leaky relu first returns its input gradient from its own buffer
        cfg = NetworkConfig("act-first", "VGG", (2, 4, 4), 2, [
            LayerSpec("leaky-relu", {}),
            LayerSpec("maxpool", {"size": 4}),
            LayerSpec("flatten", {}),
        ])
        net, params, state = build_network(cfg, seed=38)
        x, y = self.batches(net, 2, 3, seed=39)
        logits, dx, _ = train_step(net, params, state, x[0], y[0])
        kept = logits.copy(), dx.copy()
        train_step(net, params, state, x[1], y[1])
        assert np.array_equal(kept[0], logits) and np.array_equal(kept[1], dx)


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
            key = (layer.out_channels, layer.kernel, layer.stride, layer.pad, layer.bias, shape)
            convs.setdefault(key, (preset, layer, shape))
    return list(convs.values())


# the benchmark's eval batch per preset (net4 and net1 are not benchmarked)
EVAL_BATCH = {"mnist2": 128, "net2": 32, "net4": 32, "net1": 32}
CONVS = [pytest.param(preset, layer, shape, id=f"{preset}-{layer.name}")
         for preset, layer, shape in preset_convs()]


def chunked(monkeypatch, call, n, sample_cols, rows):
    """call() with CHUNK_BYTES set so that its n samples run in three or more
    chunks, the last one partial; checks the chunks that ran.

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
    assert len(batches) >= 3 and 0 < batches[-1] < batches[0]
    assert all(b * sample_cols % 64 == 0 for b in batches[:-1])
    return result


class TestChunkedConv:
    """Patch matrices built chunk by chunk give the bits of one whole matrix."""

    def setup(self, layer, shape, batch, seed):
        gen = np.random.default_rng(seed)
        params = layer.init_params(gen, np.float32)
        if layer.bias:
            params[f"{layer.name}.b"] = gen.standard_normal(layer.out_channels).astype(np.float32)
        x = gen.standard_normal((batch,) + shape).astype(np.float32)
        return params, x

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("preset,layer,shape", CONVS)
    def test_eval_forward_matches_train_forward(self, monkeypatch, preset, layer, shape, ragged):
        n = 37 if ragged else EVAL_BATCH[preset]
        params, x = self.setup(layer, shape, n, seed=40)
        want, _ = layer.forward(x, params, {}, train=True, ws=Workspace())
        _, Ho, Wo = layer.out_shape(shape)
        got, _ = chunked(monkeypatch, lambda: layer.forward(x, params, {}, train=False),
                         n, Ho * Wo, layer.fan_in)
        assert got.flags.c_contiguous
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("preset,layer,shape", [
        p for p in CONVS if p.values[1].stride == 1 and p.values[1].out_channels <= p.values[2][0]
    ])
    def test_chunked_input_gradient_matches_one_chunk(self, monkeypatch, preset, layer, shape):
        n = 37
        params, x = self.setup(layer, shape, n, seed=41)
        ws = Workspace()
        y, cache = layer.forward(x, params, {}, train=True, ws=ws)
        dy = np.random.default_rng(42).standard_normal(y.shape).astype(np.float32)
        monkeypatch.setattr(layers, "CHUNK_BYTES", 1 << 40)
        want_dx, want = layer.backward(dy, cache, params, ws=ws)
        _, cache = layer.forward(x, params, {}, train=True, ws=ws)
        _, H, W = shape
        results = [chunked(monkeypatch, lambda: layer.backward(dy, cache, params, ws=ws),
                           n, H * W, layer.out_channels * layer.kernel ** 2)]
        # an eval forward's cache holds the input, from which backward rebuilds its patches
        _, eval_cache = layer.forward(x, params, {}, train=False)
        results.append(layer.backward(dy, eval_cache, params))
        for dx, grads in results:
            assert np.array_equal(bits(dx), bits(want_dx))
            assert grads.keys() == want.keys()
            for name in want:
                assert np.array_equal(bits(grads[name]), bits(want[name])), name


def reference_im2col(x, k, stride, pad):
    """The patch matrix from np.pad and one strided-window copy per tap."""
    N, C, H, W = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    cols = np.empty((C, k, k, N, Ho, Wo), x.dtype)
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i : i + stride * (Ho - 1) + 1 : stride, j : j + stride * (Wo - 1) + 1 : stride]
            cols[:, i, j] = tap.transpose(1, 0, 2, 3)
    return cols.reshape(C * k * k, N * Ho * Wo)


def reference_col2im(dcols, x_shape, k, pad):
    """A same conv's input gradient, scattered tap by tap into a +0.0 padded buffer."""
    N, C, H, W = x_shape
    dxp = np.zeros((C, N, H + 2 * pad, W + 2 * pad), dcols.dtype)
    taps = dcols.reshape(C, k, k, N, H, W)
    for i in range(k):
        for j in range(k):
            dxp[:, :, i : i + H, j : j + W] += taps[:, i, j]
    return dxp[:, :, pad : pad + H, pad : pad + W].transpose(1, 0, 2, 3)


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


def wrapped_columns(k, pad, W):
    """(tap j, mask over output columns wo) where column wo + j - pad lies outside the row."""
    wo = np.arange(W)
    return [(j, (wo + j - pad < 0) | (wo + j - pad >= W)) for j in range(k)]


def dirty_workspace(key):
    """A Workspace whose areas hold NaN, so that an entry left unwritten shows.

    Each area holds 2 MiB, more than any case here asks for, so none is
    reallocated.
    """
    ws = Workspace()
    for area in (Workspace.TMP, key):
        ws.array(area, (1 << 18,), np.float64).fill(np.nan)
    return ws


SAME_SHAPES = [(7, 6), (1, 5), (5, 1), (2, 2)]
# k = 7 on a 2-wide plane has an edge wider than the row (pad 3 > W)
SAME_KERNELS = [3, 5, 7]


class TestSamePlane:
    """The plane path of a same conv (stride 1, kernel 2*pad + 1) against
    tap-by-tap references, bit for bit: +-0.0, NaN payloads, +-inf and
    subnormals, in float32 and float64, for planes narrower than the pad."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("N,C", [(1, 1), (3, 4)])
    @pytest.mark.parametrize("H,W", SAME_SHAPES)
    @pytest.mark.parametrize("k", SAME_KERNELS)
    def test_im2col(self, k, H, W, N, C, dtype):
        gen = np.random.default_rng(k * 1000 + H * 100 + W * 10 + N + C)
        x = special_values(gen, (N, C, H, W), dtype)
        cols, Ho, Wo = layers.im2col(x, k, k, 1, k // 2, dirty_workspace("c"), "c")
        assert (Ho, Wo) == (H, W)
        assert np.array_equal(bits(cols), bits(reference_im2col(x, k, 1, k // 2)))

    @pytest.mark.parametrize("wrapped_fill", ["special", "-0.0"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("N,C", [(1, 1), (3, 4)])
    @pytest.mark.parametrize("H,W", SAME_SHAPES)
    @pytest.mark.parametrize("k", SAME_KERNELS)
    def test_col2im(self, k, H, W, N, C, dtype, wrapped_fill):
        gen = np.random.default_rng(k * 1000 + H * 100 + W * 10 + N + C + 7)
        pad = k // 2
        dcols = special_values(gen, (C * k * k, N * H * W), dtype)
        after = dcols.copy()  # col2im overwrites the wrapped entries with -0.0
        for a in (dcols, after) if wrapped_fill == "-0.0" else (after,):
            taps = a.reshape(C, k, k, N, H, W)
            for j, wrapped in wrapped_columns(k, pad, W):
                taps[:, :, j, :, :, wrapped] = -0.0
        with np.errstate(invalid="ignore"):  # inf + -inf
            want = reference_col2im(dcols, (N, C, H, W), k, pad)
            got = layers.col2im(dcols, (N, C, H, W), k, k, 1, pad, H, W, dirty_workspace("c"))
        assert got.shape == (N, C, H, W)
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(dcols), bits(after))

    @pytest.mark.parametrize("preset,layer,shape", CONVS)
    def test_preset_patch_matrices(self, preset, layer, shape):
        x = special_values(np.random.default_rng(43), (2,) + shape, np.float32)
        k, stride, pad = layer.kernel, layer.stride, layer.pad
        cols, _, _ = layers.im2col(x, k, k, stride, pad, dirty_workspace("c"), "c")
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
        layer = LeakyReLU("L0", slope=0.01)
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
        cfg = NetworkConfig("skipnet", "ResNet", (2, 6, 6), 3, layers, [SkipSpec(2, 4)])
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
        dx, grads = net.backward(cache, dlogits, params)
        worst = probe_gradient(loss, x, dx, 60, seed=24)
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
        layer = LeakyReLU("L0", slope=0.01)
        y, _ = layer.forward(x, {}, {}, False)
        assert np.array_equal(y, np.array([-0.02, -0.005, 0.0, 0.5, 3.0]))

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
        layer = LeakyReLU("L0", slope=slope)
        y, cache = layer.forward(x, {}, {}, True)
        neg = x < 0
        assert np.array_equal(bits(y), bits(np.where(neg, np.asarray(slope, dtype) * x, x)))
        dy = x[::-1].copy()  # the same special values as gradients
        dx, _ = layer.backward(dy, cache, {})
        assert np.array_equal(bits(dx), bits(np.where(neg, np.asarray(slope, dtype) * dy, dy)))

    @pytest.mark.parametrize("slope", [0, 1, 2, -0.1, float("nan"), "0.1"])
    def test_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ConfigError, match="slope"):
            LeakyReLU("L0", slope=slope)
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
    dxhat = dy * g[c]
    m = x.shape[0] * x.shape[2] * x.shape[3]
    s1, s2 = dxhat.sum(axis=(0, 2, 3)), (dxhat * xhat).sum(axis=(0, 2, 3))
    dx = invstd[c] / m * (m * dxhat - s1[c] - xhat * s2[c])
    return y, mean, var, dx, (dy * xhat).sum(axis=(0, 2, 3)), dy.sum(axis=(0, 2, 3))


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
        return NetworkConfig("skips", "ResNet", (2, size, size), 3, layers,
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
            Network(NetworkConfig("e", "x", (1, 4, 4), 3, []))

    @pytest.mark.parametrize(
        "index, key, kind",
        [(0, "strides", "conv2d"), (1, "momentun", "batchnorm"), (2, "negative_slope", "leaky-relu"),
         (3, "stride", "maxpool"), (7, "start_dim", "flatten"), (8, "use_bias", "dense")],
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
        [(1, "momentum", 0.0), (1, "momentum", 1), (3, "size", np.int64(2)), (0, "stride", np.int32(1))],
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
        state = AdamState(params, beta1=b1, beta2=b2, eps=eps)
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
