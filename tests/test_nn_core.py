import numpy as np
import pytest

from conftest import probe_gradient
from shiftnn.errors import ConfigError, NumericError
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


def two_conv_config(in_shape=(4, 8, 8), classes=3):
    c, h, w = in_shape
    layers = [
        LayerSpec("conv2d", {"in_channels": c, "out_channels": 5, "kernel": 3, "pad": 1}),
        LayerSpec("batchnorm", {}),
        LayerSpec("leaky-relu", {}),
        LayerSpec("maxpool", {"size": 2}),
        LayerSpec("conv2d", {"in_channels": 5, "out_channels": 6, "kernel": 3, "pad": 1}),
        LayerSpec("batchnorm", {}),
        LayerSpec("leaky-relu", {}),
        LayerSpec("flatten", {}),
        LayerSpec("dense", {"in_features": 6 * (h // 2) * (w // 2), "out_features": classes}),
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
        net = Network(cfg, dtype=np.float64)
        params = {k: np.zeros(s) for k, s in net.param_shapes().items()}
        # gamma zero keeps the whole path zero-preserving
        x = np.random.default_rng(1).normal(size=(3, 4, 8, 8))
        logits, _ = net.forward(x, params, net.init_state(), train=False)
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

    def test_nonfinite_output_raises(self):
        net = Network(two_conv_config(), dtype=np.float64)
        params = net.init_params(0)
        params["L8.W"][:] = np.inf
        # inf weights against mixed-sign activations make inf - inf in the matmul
        with pytest.raises(NumericError), pytest.warns(RuntimeWarning, match="invalid value"):
            net.forward(np.ones((1, 4, 8, 8)), params, net.init_state(), train=False)


class TestBackward:
    def test_zero_logit_grad_gives_zero_grads(self):
        net, params, state = build_network(two_conv_config(), seed=5, dtype=np.float64)
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
            LayerSpec("conv2d", {"in_channels": 2, "out_channels": 4, "kernel": 3, "pad": 1}),
            LayerSpec("batchnorm", {}),
            LayerSpec("leaky-relu", {}),
            LayerSpec("conv2d", {"in_channels": 4, "out_channels": 6, "kernel": 3, "stride": 2, "pad": 1}),
            LayerSpec("batchnorm", {}),
            LayerSpec("leaky-relu", {}),
            LayerSpec("flatten", {}),
            LayerSpec("dense", {"in_features": 6 * 3 * 3, "out_features": 3}),
        ]
        from shiftnn.nn import SkipSpec

        cfg = NetworkConfig("skipnet", "ResNet", (2, 6, 6), 3, layers, [SkipSpec(2, 4)])
        net = Network(cfg, dtype=np.float64)
        params = net.init_params(22)
        state = net.init_state()
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
        with pytest.raises(ConfigError):
            Network(cfg)


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
