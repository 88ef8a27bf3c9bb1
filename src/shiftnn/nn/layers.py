"""Forward/backward implementations of the supported layer kinds.

Layers are stateless descriptions; parameters live in an external dict
keyed by "<layer name>.<param>" so callers can swap in quantized weights
without touching the layer objects.  Activations are NCHW.
"""

from __future__ import annotations

import numbers

import numpy as np

from ..errors import ConfigError


def im2col(x, kh, kw, stride, pad):
    """Channel-major patch matrix of shape (C*kh*kw, N*Ho*Wo), plus Ho, Wo.

    Row c*kh*kw + i*kw + j holds x[n, c, i + stride*ho, j + stride*wo] of
    the zero-padded input, with columns ordered (n, ho, wo), so that
    ``W.reshape(O, -1) @ cols`` is the output laid out as (O, N, Ho, Wo).
    The strided window view is copied once, in contiguous (Ho, Wo) runs.
    """
    N, C, H, W = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Hp, Wp = x.shape[2], x.shape[3]
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (C, kh, kw, N, Ho, Wo), (s1, s2, s3, s0, s2 * stride, s3 * stride)
    )
    return np.ascontiguousarray(win).reshape(C * kh * kw, N * Ho * Wo), Ho, Wo


def col2im(dcols, x_shape, kh, kw, stride, pad, Ho, Wo):
    """Scatter-add inverse of im2col: (C*kh*kw, N*Ho*Wo) -> x_shape.

    Each kernel tap adds one (C, N, Ho, Wo) block, contiguous in (Ho, Wo),
    into a strided window of a channel-major padded buffer.  The result
    is an NCHW view of that buffer.
    """
    N, C, H, W = x_shape
    Hp, Wp = H + 2 * pad, W + 2 * pad
    dxp = np.zeros((C, N, Hp, Wp), dtype=dcols.dtype)
    dwin = dcols.reshape(C, kh, kw, N, Ho, Wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + Ho * stride : stride, j : j + Wo * stride : stride] += dwin[:, i, j]
    return dxp[:, :, pad : pad + H, pad : pad + W].transpose(1, 0, 2, 3)


class Conv2D:
    kind = "conv2d"

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, pad=0, bias=True):
        if kernel < 1 or in_channels < 1 or out_channels < 1:
            raise ConfigError(f"{name}: conv dims must be positive")
        self.name = name
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad
        self.bias = bias

    @property
    def weight_name(self):
        return f"{self.name}.W"

    def param_shapes(self):
        shapes = {self.weight_name: (self.out_channels, self.in_channels, self.kernel, self.kernel)}
        if self.bias:
            shapes[f"{self.name}.b"] = (self.out_channels,)
        return shapes

    def init_params(self, rng, dtype):
        fan_in = self.in_channels * self.kernel * self.kernel
        w = rng.standard_normal(
            (self.out_channels, self.in_channels, self.kernel, self.kernel)
        ) * np.sqrt(2.0 / fan_in)
        params = {self.weight_name: w.astype(dtype)}
        if self.bias:
            params[f"{self.name}.b"] = np.zeros(self.out_channels, dtype=dtype)
        return params

    def out_shape(self, s):
        C, H, W = s
        if C != self.in_channels:
            raise ConfigError(
                f"{self.name}: expects {self.in_channels} input channels, got {C}"
            )
        Ho = (H + 2 * self.pad - self.kernel) // self.stride + 1
        Wo = (W + 2 * self.pad - self.kernel) // self.stride + 1
        if Ho < 1 or Wo < 1:
            raise ConfigError(f"{self.name}: kernel does not fit {H}x{W} input")
        return (self.out_channels, Ho, Wo)

    def forward(self, x, params, state, train):
        w = params[self.weight_name]
        k, O = self.kernel, self.out_channels
        cols, Ho, Wo = im2col(x, k, k, self.stride, self.pad)
        y = w.reshape(O, -1) @ cols
        if self.bias:
            y += params[f"{self.name}.b"][:, None]
        y = y.reshape(O, x.shape[0], Ho, Wo).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(y), (cols, x.shape, Ho, Wo)

    def backward(self, dy, cache, params):
        cols, x_shape, Ho, Wo = cache
        w = params[self.weight_name]
        k, O = self.kernel, self.out_channels
        N, C, H, W = x_shape
        dy2 = dy.transpose(1, 0, 2, 3).reshape(O, N * Ho * Wo)
        # OpenBLAS runs cols @ dy2.T faster than dy2 @ cols.T when O is small
        grads = {self.weight_name: (cols @ dy2.T).T.reshape(w.shape)}
        if self.bias:
            grads[f"{self.name}.b"] = dy2.sum(axis=1)
        if self.stride == 1 and self.pad < k and O <= C:
            # A stride-1 input gradient is itself a convolution: dy padded by
            # k-1-pad, against the flipped kernel with in/out channels swapped.
            # Its patch matrix has O*k*k rows to the forward's C*k*k, so a
            # widening conv (O > C) keeps the col2im scatter: faster and smaller.
            wt = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, O * k * k)
            dcols, _, _ = im2col(dy, k, k, 1, k - 1 - self.pad)
            dx = (wt @ dcols).reshape(C, N, H, W).transpose(1, 0, 2, 3)
        else:
            dcols = w.reshape(O, -1).T @ dy2
            dx = col2im(dcols, x_shape, k, k, self.stride, self.pad, Ho, Wo)
        return np.ascontiguousarray(dx), grads


class BatchNorm2D:
    """Per-channel batch normalization with running statistics.

    Training uses batch statistics (biased variance) and updates the
    running estimates with the given momentum; evaluation uses the
    running estimates.
    """

    kind = "batchnorm"

    def __init__(self, name, channels, momentum=0.1, eps=1e-5):
        self.name = name
        self.channels = channels
        self.momentum = momentum
        self.eps = eps

    def param_shapes(self):
        return {f"{self.name}.gamma": (self.channels,), f"{self.name}.beta": (self.channels,)}

    def init_params(self, rng, dtype):
        return {
            f"{self.name}.gamma": np.ones(self.channels, dtype=dtype),
            f"{self.name}.beta": np.zeros(self.channels, dtype=dtype),
        }

    def init_state(self, dtype):
        return {
            f"{self.name}.running_mean": np.zeros(self.channels, dtype=dtype),
            f"{self.name}.running_var": np.ones(self.channels, dtype=dtype),
        }

    def out_shape(self, s):
        if s[0] != self.channels:
            raise ConfigError(f"{self.name}: expects {self.channels} channels, got {s[0]}")
        return s

    def forward(self, x, params, state, train):
        g = params[f"{self.name}.gamma"][None, :, None, None]
        b = params[f"{self.name}.beta"][None, :, None, None]
        if train:
            mean = x.mean(axis=(0, 2, 3))
            xhat = x - mean[None, :, None, None]
            # the same operations, in the same order, as x.var(axis=(0, 2, 3))
            var = (xhat * xhat).sum(axis=(0, 2, 3)) / (x.size // x.shape[1])
            rm, rv = state[f"{self.name}.running_mean"], state[f"{self.name}.running_var"]
            rm += self.momentum * (mean.astype(rm.dtype) - rm)
            rv += self.momentum * (var.astype(rv.dtype) - rv)
        else:
            mean = state[f"{self.name}.running_mean"]
            var = state[f"{self.name}.running_var"]
            xhat = x - mean[None, :, None, None]
        invstd = 1.0 / np.sqrt(var + self.eps)
        xhat *= invstd[None, :, None, None]  # centred in place into xhat
        y = g * xhat
        y += b
        return y, (xhat, invstd.astype(x.dtype), train)

    def backward(self, dy, cache, params):
        xhat, invstd, train = cache
        g = params[f"{self.name}.gamma"]
        tmp = dy * xhat
        dgamma = tmp.sum(axis=(0, 2, 3))
        dbeta = dy.sum(axis=(0, 2, 3))
        dx = dy * g[None, :, None, None]  # dL/dxhat until the last line
        if train:
            # invstd/m * (m*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat)), in place;
            # the operand order is kept, so even NaN payloads match
            m = dy.shape[0] * dy.shape[2] * dy.shape[3]
            s1 = dx.sum(axis=(0, 2, 3))[None, :, None, None]
            s2 = np.multiply(dx, xhat, out=tmp).sum(axis=(0, 2, 3))[None, :, None, None]
            dx *= m
            dx -= s1
            dx -= np.multiply(xhat, s2, out=tmp)
            np.multiply(invstd[None, :, None, None] / m, dx, out=dx)
        else:
            dx *= invstd[None, :, None, None]
        grads = {f"{self.name}.gamma": dgamma, f"{self.name}.beta": dbeta}
        return dx, grads


class LeakyReLU:
    kind = "leaky-relu"

    def __init__(self, name, slope=0.01):
        if not (isinstance(slope, numbers.Real) and 0 < slope < 1):
            raise ConfigError(f"{name}: leaky-relu slope must lie in (0, 1), got {slope!r}")
        self.name = name
        self.slope = slope

    def param_shapes(self):
        return {}

    def init_params(self, rng, dtype):
        return {}

    def out_shape(self, s):
        return s

    def forward(self, x, params, state, train):
        # For 0 < slope < 1, max(x, slope*x) is x where x >= 0 and slope*x where
        # x < 0, bit for bit, with -0.0, an underflowing slope*x and +-inf.  Of two
        # NaNs np.maximum returns the first, so a NaN x passes through unchanged.
        y = np.multiply(np.asarray(self.slope, dtype=x.dtype), x)
        np.maximum(x, y, out=y)
        return y, x < 0

    def backward(self, dy, cache, params):
        neg = cache
        dx = np.array([1, self.slope], dtype=dy.dtype).take(neg.view(np.uint8))
        dx *= dy
        return dx, {}


class MaxPool2D:
    """Non-overlapping max pooling; gradients route to the first maximum.

    Windows are scanned row-major and +0.0 ties with -0.0.  A window that
    holds a NaN pools to its first NaN and routes its gradient there.
    """

    kind = "maxpool"

    def __init__(self, name, size):
        if size < 2:
            raise ConfigError(f"{name}: pool size must be >= 2")
        self.name = name
        self.size = size

    def param_shapes(self):
        return {}

    def init_params(self, rng, dtype):
        return {}

    def out_shape(self, s):
        C, H, W = s
        if H % self.size or W % self.size:
            raise ConfigError(f"{self.name}: {H}x{W} not divisible by pool size {self.size}")
        return (C, H // self.size, W // self.size)

    def _windows(self, a):
        """The size**2 strided views a[:, :, i::size, j::size], in window order."""
        s = self.size
        return [a[:, :, i::s, j::s] for i in range(s) for j in range(s)]

    def forward(self, x, params, state, train):
        views = self._windows(x)
        # np.maximum returns its second operand on a tie (+0.0 against -0.0
        # too), so a reduction in reverse window order keeps the first maximum.
        y = np.maximum(views[-1], views[-2])
        for v in views[-3::-1]:
            np.maximum(y, v, out=y)
        # Of two NaNs it returns the first operand, which is the later one here.
        nan = np.isnan(y)
        if nan.any():
            for v in views[::-1]:
                np.copyto(y, v, where=nan & np.isnan(v))
        return y, (x, y)

    def backward(self, dy, cache, params):
        x, y = cache
        # y holds the bits of its window's first maximum, so the first element
        # with the same bits is the one to route dy to (this also finds NaNs).
        # Each gradient is its bit pattern times the 0/1 hit mask: exactly dy or
        # +0.0, with no 0*inf and no -0.0.
        ybits, dybits = y.view(f"u{y.itemsize}"), dy.view(f"u{dy.itemsize}")
        dx = np.empty(x.shape, dtype=dy.dtype)
        xw, dxw = self._windows(x.view(ybits.dtype)), self._windows(dx.view(dybits.dtype))
        todo = np.ones(y.shape, dtype=bool)
        for v, d in zip(xw[:-1], dxw[:-1]):
            hit = v == ybits
            hit &= todo
            todo ^= hit
            np.multiply(dybits, hit, out=d)
        np.multiply(dybits, todo, out=dxw[-1])  # no earlier hit: the last element
        return dx, {}


class Flatten:
    kind = "flatten"

    def __init__(self, name):
        self.name = name

    def param_shapes(self):
        return {}

    def init_params(self, rng, dtype):
        return {}

    def out_shape(self, s):
        return (int(np.prod(s)),)

    def forward(self, x, params, state, train):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, params):
        return dy.reshape(cache), {}


class Dense:
    kind = "dense"

    def __init__(self, name, in_features, out_features, bias=True):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.bias = bias

    @property
    def weight_name(self):
        return f"{self.name}.W"

    def param_shapes(self):
        shapes = {self.weight_name: (self.out_features, self.in_features)}
        if self.bias:
            shapes[f"{self.name}.b"] = (self.out_features,)
        return shapes

    def init_params(self, rng, dtype):
        w = rng.standard_normal((self.out_features, self.in_features)) * np.sqrt(
            2.0 / self.in_features
        )
        params = {self.weight_name: w.astype(dtype)}
        if self.bias:
            params[f"{self.name}.b"] = np.zeros(self.out_features, dtype=dtype)
        return params

    def out_shape(self, s):
        if len(s) != 1 or s[0] != self.in_features:
            raise ConfigError(f"{self.name}: expects ({self.in_features},) input, got {s}")
        return (self.out_features,)

    def forward(self, x, params, state, train):
        y = x @ params[self.weight_name].T
        if self.bias:
            y = y + params[f"{self.name}.b"]
        return y, x

    def backward(self, dy, cache, params):
        x = cache
        grads = {self.weight_name: dy.T @ x}
        if self.bias:
            grads[f"{self.name}.b"] = dy.sum(axis=0)
        dx = dy @ params[self.weight_name]
        return dx, grads
