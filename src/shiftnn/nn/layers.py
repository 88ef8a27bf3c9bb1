"""Forward/backward implementations of the supported layer kinds.

Layers are stateless descriptions; parameters live in an external dict
keyed by "<layer name>.<param>" so callers can swap in quantized weights
without touching the layer objects.  Activations are NCHW.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from ..errors import ConfigError


def _require_int(name, what, value, least):
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigError(f"{name}: {what} must be an integer >= {least}, got {value!r}")


class Workspace:
    """Arrays that a Network's train steps reuse instead of allocating anew.

    array(key, shape, dtype) is a view of one grow-only area per key, so it
    holds what was last written there until the next request for that key.
    A layer keys the arrays that outlive its call by its own name: what its
    train cache keeps and, but for Conv2D, the input gradient it returns.
    Conv2D.backward writes the patch matrix of dy over the forward's, which
    it no longer needs.  Temporaries that live only inside one call share
    the area TMP.
    """

    TMP = "tmp"

    def __init__(self):
        self._areas = {}

    def array(self, key, shape, dtype):
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        area = self._areas.get(key)
        if area is None or area.nbytes < nbytes:
            area = self._areas[key] = np.empty(nbytes, np.uint8)
        return area[:nbytes].view(dtype).reshape(shape)

    def holds(self, a):
        """Whether a may lie in one of the areas."""
        return any(np.may_share_memory(a, area) for area in self._areas.values())


def _array(ws, key, shape, dtype):
    """The workspace's array for key, or a new array when there is no workspace."""
    return np.empty(shape, dtype) if ws is None else ws.array(key, shape, dtype)


def _same(kh, kw, stride, pad):
    """Whether a conv is stride 1 and same-padded, with an H x W output."""
    return stride == 1 and kh == kw == 2 * pad + 1 and pad > 0


def _wrapped(taps, pad):
    """The views of taps, shaped (C, k, k, N, H, W), whose plane run crossed a row edge.

    In a same conv's plane (see im2col), tap (i, j)'s run for output column
    wo reads column wo + j - pad of its row; where that lies outside 0..W-1,
    the run has wrapped into the row before or after.  Each edge slice is
    clamped to 0..W, so W < pad needs no negative index.
    """
    W = taps.shape[-1]
    for d in range(1, pad + 1):
        yield taps[:, :, pad - d, ..., : min(d, W)]
        yield taps[:, :, pad + d, ..., max(W - d, 0) :]


def im2col(x, kh, kw, stride, pad, ws=None, key=None):
    """Channel-major patch matrix of shape (C*kh*kw, N*Ho*Wo), plus Ho, Wo.

    Row c*kh*kw + i*kw + j holds x[n, c, i + stride*ho, j + stride*wo] of
    the zero-padded input, with columns ordered (n, ho, wo), so that
    ``W.reshape(O, -1) @ cols`` is the output laid out as (O, N, Ho, Wo).
    The matrix is the workspace's array `key`; its source is a TMP temporary.

    A same conv (stride 1, kh == kw == 2*pad + 1, pad > 0) copies x once
    into a plane (N, C, 2*lo + H*W) with lo = pad*W + pad zeros at each end;
    the patch row of (c, i, j, n) is then the one run at offset i*W + j, and
    the entries whose run wrapped across a row edge are set to +0.0, the
    padding's value.  Any other conv copies its padded input's strided window
    view in contiguous (Ho, Wo) runs.
    """
    N, C, H, W = x.shape
    if _same(kh, kw, stride, pad):
        lo, hw = pad * W + pad, H * W
        plane = _array(ws, Workspace.TMP, (N, C, 2 * lo + hw), x.dtype)
        plane[:, :, :lo] = 0
        plane[:, :, lo + hw :] = 0
        np.copyto(plane[:, :, lo : lo + hw].reshape(N, C, H, W), x)
        s0, s1, s2 = plane.strides
        win = np.lib.stride_tricks.as_strided(plane, (C, kh, kw, N, hw), (s1, W * s2, s2, s0, s2))
        cols = _array(ws, key, win.shape, x.dtype)
        np.copyto(cols, win)
        for edge in _wrapped(cols.reshape(C, kh, kw, N, H, W), pad):
            edge.fill(0.0)
        return cols.reshape(C * kh * kw, N * hw), H, W
    if pad:
        xp = _array(ws, Workspace.TMP, (N, C, H + 2 * pad, W + 2 * pad), x.dtype)
        xp.fill(0)
        xp[:, :, pad : pad + H, pad : pad + W] = x
        x = xp
    Hp, Wp = x.shape[2], x.shape[3]
    Ho = (Hp - kh) // stride + 1
    Wo = (Wp - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    win = np.lib.stride_tricks.as_strided(
        x, (C, kh, kw, N, Ho, Wo), (s1, s2, s3, s0, s2 * stride, s3 * stride)
    )
    cols = _array(ws, key, win.shape, x.dtype)
    np.copyto(cols, win)
    return cols.reshape(C * kh * kw, N * Ho * Wo), Ho, Wo


def col2im(dcols, x_shape, kh, kw, stride, pad, Ho, Wo, ws=None):
    """Scatter-add inverse of im2col: (C*kh*kw, N*Ho*Wo) -> x_shape.

    Each kernel tap, in order, adds one (C, N, Ho, Wo) block into a
    channel-major buffer that starts at +0.0, the workspace's TMP area.  The
    result is an NCHW view of that buffer.  A same conv (see im2col) adds
    each tap's block as one run per (c, n) into a plane at offset i*W + j,
    after it overwrites dcols' wrapped entries with -0.0: x + -0.0 is x for
    every x, -0.0 and NaN payloads included, so every sum keeps its bits.
    Any other conv adds each block into a strided window of a padded buffer.
    """
    N, C, H, W = x_shape
    if _same(kh, kw, stride, pad):
        lo, hw = pad * W + pad, H * W
        taps = dcols.reshape(C, kh, kw, N, H, W)
        for edge in _wrapped(taps, pad):
            edge.fill(-0.0)
        runs = taps.reshape(C, kh, kw, N, hw)
        plane = _array(ws, Workspace.TMP, (C, N, 2 * lo + hw), dcols.dtype)
        plane.fill(0)
        for i in range(kh):
            for j in range(kw):
                plane[:, :, i * W + j : i * W + j + hw] += runs[:, i, j]
        return plane[:, :, lo : lo + hw].reshape(C, N, H, W).transpose(1, 0, 2, 3)
    Hp, Wp = H + 2 * pad, W + 2 * pad
    dxp = _array(ws, Workspace.TMP, (C, N, Hp, Wp), dcols.dtype)
    dxp.fill(0)
    dwin = dcols.reshape(C, kh, kw, N, Ho, Wo)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + Ho * stride : stride, j : j + Wo * stride : stride] += dwin[:, i, j]
    return dxp[:, :, pad : pad + H, pad : pad + W].transpose(1, 0, 2, 3)


class Layer:
    """Defaults for a layer with no parameters or state that keeps its input's shape.

    Each concrete layer defines forward(x, params, state, train, ws=None) ->
    (y, cache) and backward(dy, cache, params, ws=None) -> (dx, grads).  With
    a Workspace ws, a layer may keep its cache, its temporaries and its dx in
    ws's arrays; without one it allocates them.
    """

    def __init__(self, name):
        self.name = name

    def param_shapes(self):
        return {}

    def init_params(self, rng, dtype):
        return {}

    def init_state(self, dtype):
        return {}

    def out_shape(self, s):
        return s


class Kernel(Layer):
    """A conv or dense layer: one quantizable weight tensor and an optional bias.

    weight_shape is (filters, *filter_shape): each leading slice is one filter
    of fan_in weights.  Weights start He-normal and the bias at zero.
    """

    def __init__(self, name, weight_shape, bias):
        super().__init__(name)
        self.weight_shape = weight_shape
        self.bias = bias

    @property
    def weight_name(self):
        return f"{self.name}.W"

    @property
    def fan_in(self):
        return math.prod(self.weight_shape[1:])

    def param_shapes(self):
        shapes = {self.weight_name: self.weight_shape}
        if self.bias:
            shapes[f"{self.name}.b"] = self.weight_shape[:1]
        return shapes

    def init_params(self, rng, dtype):
        w = rng.standard_normal(self.weight_shape) * np.sqrt(2.0 / self.fan_in)
        params = {self.weight_name: w.astype(dtype)}
        if self.bias:
            params[f"{self.name}.b"] = np.zeros(self.weight_shape[0], dtype=dtype)
        return params


CHUNK_BYTES = 1 << 20  # the most patch bytes a chunk of Conv2D's chunked GEMMs holds


class Conv2D(Kernel):
    """A 2-D convolution: one GEMM over the im2col patch matrix of its input.

    A patch matrix is k*k times its activation, too big for the cache.  The
    eval forward and the stride-1 input gradient read theirs (x's, dy's) in
    one GEMM only, so they build it in chunks of whole samples of at most
    CHUNK_BYTES, each chunk followed by its columns of the GEMM.  That split
    leaves every output's sum as it was, and each chunk but the last spans a
    multiple of 64 columns, so that OpenBLAS tiles it as the whole product:
    the results keep their bits.  The train forward keeps its whole patch
    matrix for dW, whose GEMM sums over every column; a split there would
    reorder the sums.  Each chunk overwrites Workspace.TMP, so no array that
    a later chunk reads may lie there.

    im2col and col2im copy the patches of a same conv (stride 1, kernel
    2*pad + 1, pad > 0: each 3x3 preset conv and its input gradient) as
    whole H*W plane runs, whose entries that wrap a row edge read +0.0 and
    add -0.0, bit for bit; other convs copy strided windows.
    """

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, pad=0, bias=True):
        for what, value, least in (
            ("in_channels", in_channels, 1),
            ("out_channels", out_channels, 1),
            ("kernel", kernel, 1),
            ("stride", stride, 1),
            ("pad", pad, 0),
        ):
            _require_int(name, what, value, least)
        super().__init__(name, (out_channels, in_channels, kernel, kernel), bias)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.pad = pad

    def out_shape(self, s):
        _, H, W = s
        Ho = (H + 2 * self.pad - self.kernel) // self.stride + 1
        Wo = (W + 2 * self.pad - self.kernel) // self.stride + 1
        if Ho < 1 or Wo < 1:
            raise ConfigError(f"{self.name}: kernel does not fit {H}x{W} input")
        return (self.out_channels, Ho, Wo)

    def _gemm(self, w2, a, stride, pad, out, ws, bias=None, chunked=True):
        """Fills NCHW out with w2 @ im2col(a) + bias, in chunks (see the class) or in one.

        The patch matrices go to the array "<name>.cols"; returns the last.
        """
        N, O, Ho, Wo = out.shape
        step = 64 // math.gcd(64, Ho * Wo)
        size = (max(1, CHUNK_BYTES // (w2.shape[1] * Ho * Wo * a.itemsize * step)) * step
                if chunked else N)
        k = self.kernel
        for lo in range(0, N, size):
            hi = min(lo + size, N)
            cols, _, _ = im2col(a[lo:hi], k, k, stride, pad, ws, f"{self.name}.cols")
            y = np.matmul(w2, cols, out=_array(ws, Workspace.TMP, (O, cols.shape[1]), out.dtype))
            if bias is not None:
                y += bias[:, None]
            out[lo:hi] = y.reshape(O, hi - lo, Ho, Wo).transpose(1, 0, 2, 3)
        return cols

    def forward(self, x, params, state, train, ws=None):
        w = params[self.weight_name]
        y = np.empty((x.shape[0],) + self.out_shape(x.shape[1:]), np.result_type(w, x))
        cols = self._gemm(w.reshape(self.out_channels, -1), x, self.stride, self.pad, y, ws,
                          params[f"{self.name}.b"] if self.bias else None, chunked=not train)
        # a train cache keeps the patch matrix; an eval cache keeps the input instead
        return y, ((cols, x.shape, None) if train else (None, x.shape, x))

    def backward(self, dy, cache, params, ws=None):
        cols, x_shape, x = cache
        w = params[self.weight_name]
        k, O = self.kernel, self.out_channels
        N, C, H, W = x_shape
        _, Ho, Wo = self.out_shape(x_shape[1:])
        if cols is None:
            cols, _, _ = im2col(x, k, k, self.stride, self.pad, ws, f"{self.name}.cols")
        dy2 = _array(ws, Workspace.TMP, (O, N, Ho, Wo), dy.dtype)
        np.copyto(dy2, dy.transpose(1, 0, 2, 3))
        dy2 = dy2.reshape(O, N * Ho * Wo)
        # OpenBLAS runs cols @ dy2.T faster than dy2 @ cols.T when O is small
        grads = {self.weight_name: (cols @ dy2.T).T.reshape(w.shape)}
        if self.bias:
            grads[f"{self.name}.b"] = dy2.sum(axis=1)
        if self.stride == 1 and self.pad < k and O <= C:
            # A stride-1 input gradient is itself a convolution: dy padded by k-1-pad,
            # against the flipped kernel with in/out channels swapped; its patches
            # overwrite the spent cols.  They have O*k*k rows to the forward's C*k*k,
            # so a widening conv (O > C) keeps the col2im scatter: faster and smaller.
            wt = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, O * k * k)
            dx = np.empty(x_shape, np.result_type(wt, dy))
            self._gemm(wt, dy, 1, k - 1 - self.pad, dx, ws)
        else:
            w2 = w.reshape(O, -1).T
            dcols = _array(ws, f"{self.name}.cols", cols.shape, np.result_type(w2, dy2))
            np.matmul(w2, dy2, out=dcols)
            dx = col2im(dcols, x_shape, k, k, self.stride, self.pad, Ho, Wo, ws).copy()  # TMP view
        return dx, grads


class BatchNorm2D(Layer):
    """Per-channel batch normalization with running statistics.

    Training uses batch statistics (biased variance) and updates the
    running estimates with the given momentum; evaluation uses the
    running estimates.
    """

    def __init__(self, name, channels, momentum=0.1, eps=1e-5):
        # eps = 0 turns a constant channel (zero variance) into NaN
        if not (isinstance(eps, numbers.Real) and 0 < eps < np.inf):
            raise ConfigError(f"{name}: batchnorm eps must be positive and finite, got {eps!r}")
        if not (isinstance(momentum, numbers.Real) and 0 <= momentum <= 1):
            raise ConfigError(f"{name}: batchnorm momentum must lie in [0, 1], got {momentum!r}")
        super().__init__(name)
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

    def forward(self, x, params, state, train, ws=None):
        g = params[f"{self.name}.gamma"][None, :, None, None]
        b = params[f"{self.name}.beta"][None, :, None, None]
        if train:
            mean = x.mean(axis=(0, 2, 3))
            xhat = _array(ws, f"{self.name}.xhat", x.shape, np.result_type(x, mean))
            np.subtract(x, mean[None, :, None, None], out=xhat)
            # the same operations, in the same order, as x.var(axis=(0, 2, 3))
            sq = np.multiply(xhat, xhat, out=_array(ws, Workspace.TMP, x.shape, xhat.dtype))
            var = sq.sum(axis=(0, 2, 3)) / (x.size // x.shape[1])
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

    def backward(self, dy, cache, params, ws=None):
        xhat, invstd, train = cache
        g = params[f"{self.name}.gamma"]
        tmp = _array(ws, Workspace.TMP, dy.shape, np.result_type(dy, xhat))
        dgamma = np.multiply(dy, xhat, out=tmp).sum(axis=(0, 2, 3))
        dbeta = dy.sum(axis=(0, 2, 3))
        dx = _array(ws, f"{self.name}.dx", dy.shape, np.result_type(dy, g))
        np.multiply(dy, g[None, :, None, None], out=dx)  # dL/dxhat until the last line
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


class LeakyReLU(Layer):
    def __init__(self, name, slope=0.01):
        if not (isinstance(slope, numbers.Real) and 0 < slope < 1):
            raise ConfigError(f"{name}: leaky-relu slope must lie in (0, 1), got {slope!r}")
        super().__init__(name)
        self.slope = slope

    def forward(self, x, params, state, train, ws=None):
        # For 0 < slope < 1, max(x, slope*x) is x where x >= 0 and slope*x where
        # x < 0, bit for bit, with -0.0, an underflowing slope*x and +-inf.  Of two
        # NaNs np.maximum returns the first, so a NaN x passes through unchanged.
        y = np.multiply(np.asarray(self.slope, dtype=x.dtype), x)
        np.maximum(x, y, out=y)
        return y, np.less(x, 0, out=_array(ws, f"{self.name}.mask", x.shape, bool))

    def backward(self, dy, cache, params, ws=None):
        neg = cache
        # take works on intp indices and would convert the mask into a new array
        idx = _array(ws, Workspace.TMP, neg.shape, np.intp)
        np.copyto(idx, neg)
        dx = _array(ws, f"{self.name}.dx", neg.shape, dy.dtype)
        # mode="raise" would make take write into a temporary and copy it to dx
        np.array([1, self.slope], dtype=dy.dtype).take(idx, out=dx, mode="clip")
        dx *= dy
        return dx, {}


class MaxPool2D(Layer):
    """Non-overlapping max pooling; gradients route to the first maximum.

    Windows are scanned row-major and +0.0 ties with -0.0.  A window that
    holds a NaN pools to its first NaN and routes its gradient there.
    """

    def __init__(self, name, size):
        _require_int(name, "pool size", size, 2)
        super().__init__(name)
        self.size = size

    def out_shape(self, s):
        C, H, W = s
        if H % self.size or W % self.size:
            raise ConfigError(f"{self.name}: {H}x{W} not divisible by pool size {self.size}")
        return (C, H // self.size, W // self.size)

    def _windows(self, a):
        """The size**2 strided views a[:, :, i::size, j::size], in window order."""
        s = self.size
        return [a[:, :, i::s, j::s] for i in range(s) for j in range(s)]

    def forward(self, x, params, state, train, ws=None):
        views = self._windows(x)
        # np.maximum returns its second operand on a tie (+0.0 against -0.0
        # too), so a reduction in reverse window order keeps the first maximum.
        y = _array(ws, f"{self.name}.y", views[-1].shape, x.dtype)
        np.maximum(views[-1], views[-2], out=y)
        for v in views[-3::-1]:
            np.maximum(y, v, out=y)
        # Of two NaNs it returns the first operand, which is the later one here.
        nan = np.isnan(y)
        if nan.any():
            for v in views[::-1]:
                np.copyto(y, v, where=nan & np.isnan(v))
        return y, (x, y)

    def backward(self, dy, cache, params, ws=None):
        x, y = cache
        # y holds the bits of its window's first maximum, so the first element
        # with the same bits is the one to route dy to (this also finds NaNs).
        # Each gradient is its bit pattern times the 0/1 hit mask: exactly dy or
        # +0.0, with no 0*inf and no -0.0.
        ybits, dybits = y.view(f"u{y.itemsize}"), dy.view(f"u{dy.itemsize}")
        dx = _array(ws, f"{self.name}.dx", x.shape, dy.dtype)
        xw, dxw = self._windows(x.view(ybits.dtype)), self._windows(dx.view(dybits.dtype))
        todo, hit = _array(ws, Workspace.TMP, (2,) + y.shape, bool)
        todo.fill(True)
        for v, d in zip(xw[:-1], dxw[:-1]):
            np.equal(v, ybits, out=hit)
            hit &= todo
            todo ^= hit
            np.multiply(dybits, hit, out=d)
        np.multiply(dybits, todo, out=dxw[-1])  # no earlier hit: the last element
        return dx, {}


class Flatten(Layer):
    def out_shape(self, s):
        return (int(np.prod(s)),)

    def forward(self, x, params, state, train, ws=None):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, dy, cache, params, ws=None):
        return dy.reshape(cache), {}


class Dense(Kernel):
    def __init__(self, name, in_features, out_features, bias=True):
        _require_int(name, "in_features", in_features, 1)
        _require_int(name, "out_features", out_features, 1)
        super().__init__(name, (out_features, in_features), bias)

    def out_shape(self, s):
        return self.weight_shape[:1]

    def forward(self, x, params, state, train, ws=None):
        y = x @ params[self.weight_name].T
        if self.bias:
            y = y + params[f"{self.name}.b"]
        return y, x

    def backward(self, dy, cache, params, ws=None):
        x = cache
        grads = {self.weight_name: dy.T @ x}
        if self.bias:
            grads[f"{self.name}.b"] = dy.sum(axis=0)
        dx = dy @ params[self.weight_name]
        return dx, grads
