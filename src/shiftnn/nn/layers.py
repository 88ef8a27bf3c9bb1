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
    """value as a Python int, which numpy integers are not: their shape and cost sums wrap."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigError(f"{name}: {what} must be an integer >= {least}, got {value!r}")
    return int(value)


class Workspace:
    """Arrays that a Network's train steps reuse instead of allocating anew.

    array(key, shape, dtype) is a view of one grow-only area per key, so it
    holds what was last written there until the next request for that key.
    A layer keys what its train cache keeps by its own name.  A backward
    writes its input gradient into the GRADS area that its dy does not lie
    in, and Network.backward sums a node gradient that skips read in a skip
    slot, SKIP.format(k).  Every Conv2D builds its patch matrices in the one
    area COLS, which none keeps past its call.  Temporaries that live only
    inside one call share the area TMP.
    """

    TMP = "tmp"
    COLS = "cols"
    GRADS = ("grad0", "grad1")
    SKIP = "skip{}"

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

    def areas(self):
        """The byte array of each key's area, by key."""
        return dict(self._areas)


def _array(ws, key, shape, dtype):
    """The workspace's array for key, or a new array when there is no workspace."""
    return np.empty(shape, dtype) if ws is None else ws.array(key, shape, dtype)


def _grad(ws, dy, shape, dtype):
    """The array for the input gradient from dy: ws's GRADS area that dy does not lie in."""
    if ws is None:
        return np.empty(shape, dtype)
    first = ws.areas().get(Workspace.GRADS[0], np.empty(0))
    return ws.array(Workspace.GRADS[np.may_share_memory(dy, first)], shape, dtype)


def _taps(plane, P, k, stride, Ho, Wo):
    """The view (C, k, k, N, Ho, Wo) of a contiguous plane (N, C, L).

    Entry (c, i, j, n, ho, wo) lies at offset (stride*ho + i)*P + stride*wo + j of
    plane row (n, c); when Wo == P, (Ho, Wo) is one run.  np.ndarray checks the bounds.
    """
    s = plane.itemsize
    N, C = plane.shape[:2]
    sn, sc = plane.strides[:2]
    block = [(Ho * Wo, stride * s)] if Wo == P else [(Ho, stride * P * s), (Wo, stride * s)]
    shape, strides = zip((C, sc), (k, P * s), (k, s), (N, sn), *block)
    return np.ndarray(shape, plane.dtype, plane, 0, strides)


def _conv_geometry(H, W, k, stride, pad):
    """(Ho, Wo, P, lo): the output size of a k x k conv of an H x W input, and the
    row pitch P = max(W, Wo) and margin lo of the zero-padded plane of im2col and col2im."""
    Ho = (H + 2 * pad - k) // stride + 1
    Wo = (W + 2 * pad - k) // stride + 1
    P = max(W, Wo)
    return Ho, Wo, P, pad * P + pad


def _wrapped(taps, W, stride, pad):
    """The slices of taps (C, k, k, N, Ho, Wo) whose input column stride*wo + j - pad
    lies outside 0..W-1: for each tap column j, a prefix and a suffix of 0..Wo-1."""
    for j in range(taps.shape[2]):
        yield taps[:, :, j, ..., : max(0, -((j - pad) // stride))]
        yield taps[:, :, j, ..., max(0, -((j - pad - W) // stride)) :]


def im2col(x, k, stride, pad, ws=None):
    """Channel-major patch matrix of shape (C*k*k, N*Ho*Wo), with Ho, Wo from _conv_geometry.

    Row c*k*k + i*k + j holds x[n, c, i + stride*ho, j + stride*wo] of the
    zero-padded input, with columns ordered (n, ho, wo), so that
    ``W.reshape(O, -1) @ cols`` is the output laid out as (O, N, Ho, Wo).
    The matrix is the workspace's array COLS.

    Every conv, and x of any strides, takes one path.  x is copied once into a
    TMP plane (N, C, 2*lo + H*P) with _conv_geometry's row pitch P = max(W, Wo)
    and lo = pad*P + pad zeros at each end.  One strided view holds all taps
    (_taps); the entries that read no input column (_wrapped), whose plane
    entry lies in a margin or a neighbouring row, are set to +0.0, the
    padding's value.  P >= Wo keeps each tap's addresses distinct, which
    col2im's adds into this same plane need: over-padded convs (stride 1,
    2*pad >= kernel) have Wo > W.
    """
    N, C, H, W = x.shape
    Ho, Wo, P, lo = _conv_geometry(H, W, k, stride, pad)
    plane = _array(ws, Workspace.TMP, (N, C, 2 * lo + H * P), x.dtype)
    plane[:, :, :lo] = 0
    plane[:, :, lo + H * P :] = 0
    np.copyto(plane[:, :, lo : lo + H * P].reshape(N, C, H, P)[..., :W], x)
    win = _taps(plane, P, k, stride, Ho, Wo)
    cols = _array(ws, Workspace.COLS, win.shape, x.dtype)
    np.copyto(cols, win)
    for edge in _wrapped(cols.reshape(C, k, k, N, Ho, Wo), W, stride, pad):
        edge.fill(0.0)
    return cols.reshape(C * k * k, N * Ho * Wo)


def col2im(dcols, x_shape, k, stride, pad, ws=None):
    """Scatter-add inverse of im2col: (C*k*k, N*Ho*Wo) -> x_shape, with Ho, Wo
    from _conv_geometry.

    The entries of dcols that read no input column are first set to -0.0:
    x + -0.0 is x for every x, -0.0 and NaN payloads included.  Then each
    kernel tap, in order, adds its block into the taps view of im2col's plane,
    started at +0.0 in the TMP area; the result is the plane's NCHW interior,
    which im2col copies x into.  When Wo == P (a same conv) a block is one run
    per (c, n), which numpy adds about twice as fast as (Ho, Wo).  Every sum
    keeps its bits, except where two NaNs meet: the result is a NaN with one of
    their payloads, and which one depends on where numpy splits the add's run
    into its SIMD body and scalar tail.
    """
    N, C, H, W = x_shape
    Ho, Wo, P, lo = _conv_geometry(H, W, k, stride, pad)
    for edge in _wrapped(dcols.reshape(C, k, k, N, Ho, Wo), W, stride, pad):
        edge.fill(-0.0)
    plane = _array(ws, Workspace.TMP, (N, C, 2 * lo + H * P), dcols.dtype)
    plane.fill(0)
    taps = _taps(plane, P, k, stride, Ho, Wo)
    blocks = dcols.reshape(taps.shape)
    for i in range(k):
        for j in range(k):
            taps[:, i, j] += blocks[:, i, j]
    return plane[:, :, lo : lo + H * P].reshape(N, C, H, P)[..., :W]


class Layer:
    """Defaults for a layer with no parameters or state that keeps its input's shape.

    Each concrete layer defines forward(x, params, state, train, ws=None) ->
    (y, cache) and backward(dy, cache, params, ws=None, need_dx=True) ->
    (dx, grads), which reads only train caches: an eval forward may return
    None.  With need_dx false, backward skips the input gradient and returns
    None for dx; the parameter gradients keep their bits.  With a Workspace
    ws, a layer may keep its cache and temporaries in ws's arrays, and its dx
    in the GRADS area that dy does not lie in; without one it allocates them.
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
    """A conv or dense layer: one quantizable weight tensor, and a bias if the class has one.

    weight_shape is (filters, *filter_shape): each leading slice is one filter
    of fan_in weights.  Weights start He-normal and the bias at zero.
    """

    def __init__(self, name, weight_shape):
        super().__init__(name)
        self.weight_shape = weight_shape

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

    It has no bias: every chain conv feeds a BatchNorm2D, whose batch mean cancels
    one, so a bias would cost an add per output and drift on Adam-scaled noise.

    A patch matrix is k*k times its activation, too big for the cache.  The
    forward and the stride-1 input gradient read theirs (x's, dy's) in one
    GEMM only, so they build it in chunks of whole samples of at most
    CHUNK_BYTES, each chunk followed by its columns of the GEMM.  That split
    leaves every output's sum as it was, and each chunk but the last spans a
    multiple of 64 columns, so that OpenBLAS tiles it as the whole product:
    the results keep their bits.  dW's GEMM sums over every column, so the
    train cache keeps x, and backward rebuilds its whole patch matrix in
    Workspace.COLS, one conv's at a time.  Each chunk overwrites
    Workspace.TMP, so no array that a later chunk reads may lie there.
    """

    bias = False

    def __init__(self, name, in_channels, out_channels, kernel, stride=1, pad=0):
        self.in_channels, self.out_channels, self.kernel, self.stride, self.pad = (
            _require_int(name, what, value, least) for what, value, least in (
                ("in_channels", in_channels, 1),
                ("out_channels", out_channels, 1),
                ("kernel", kernel, 1),
                ("stride", stride, 1),
                ("pad", pad, 0),
            ))
        super().__init__(name, (self.out_channels, self.in_channels, self.kernel, self.kernel))

    def out_shape(self, s):
        _, H, W = s
        Ho, Wo, _, _ = _conv_geometry(H, W, self.kernel, self.stride, self.pad)
        if Ho < 1 or Wo < 1:
            raise ConfigError(f"{self.name}: kernel does not fit {H}x{W} input")
        return (self.out_channels, Ho, Wo)

    def _gemm(self, w2, a, stride, pad, out, ws):
        """Fills NCHW out with w2 @ im2col(a), in chunks (see the class)."""
        N, O, Ho, Wo = out.shape
        step = 64 // math.gcd(64, Ho * Wo)
        size = max(1, CHUNK_BYTES // (w2.shape[1] * Ho * Wo * a.itemsize * step)) * step
        for lo in range(0, N, size):
            hi = min(lo + size, N)
            cols = im2col(a[lo:hi], self.kernel, stride, pad, ws)
            y = np.matmul(w2, cols, out=_array(ws, Workspace.TMP, (O, cols.shape[1]), out.dtype))
            out[lo:hi] = y.reshape(O, hi - lo, Ho, Wo).transpose(1, 0, 2, 3)

    def forward(self, x, params, state, train, ws=None):
        w = params[self.weight_name]
        y = np.empty((x.shape[0],) + self.out_shape(x.shape[1:]), np.result_type(w, x))
        self._gemm(w.reshape(self.out_channels, -1), x, self.stride, self.pad, y, ws)
        return y, (x if train else None)

    def backward(self, dy, cache, params, ws=None, need_dx=True):
        x = cache
        w = params[self.weight_name]
        k, C = self.kernel, self.in_channels
        N, O, Ho, Wo = dy.shape
        # before dy2 takes TMP, which im2col's plane overwrites
        cols = im2col(x, k, self.stride, self.pad, ws)
        dy2 = _array(ws, Workspace.TMP, (O, N, Ho, Wo), dy.dtype)
        np.copyto(dy2, dy.transpose(1, 0, 2, 3))
        dy2 = dy2.reshape(O, N * Ho * Wo)
        # OpenBLAS runs cols @ dy2.T faster than dy2 @ cols.T when O is small
        grads = {self.weight_name: (cols @ dy2.T).T.reshape(w.shape)}
        if not need_dx:
            return None, grads
        dx = _grad(ws, dy, x.shape, np.result_type(w, dy))
        if self.stride == 1 and self.pad < k and O <= C:
            # A stride-1 input gradient is itself a convolution: dy padded by k-1-pad,
            # against the flipped kernel with in/out channels swapped; its patches
            # overwrite the spent cols.  They have O*k*k rows to the forward's C*k*k,
            # so a widening conv (O > C) keeps the col2im scatter: faster and smaller.
            wt = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(C, O * k * k)
            self._gemm(wt, dy, 1, k - 1 - self.pad, dx, ws)
        else:
            w2 = w.reshape(O, -1).T
            dcols = _array(ws, Workspace.COLS, cols.shape, dx.dtype)
            np.matmul(w2, dy2, out=dcols)
            np.copyto(dx, col2im(dcols, x.shape, k, self.stride, self.pad, ws))
        return dx, grads


class BatchNorm2D(Layer):
    """Per-channel batch normalization with running statistics.

    Training uses batch statistics (biased variance) and moves the
    running estimates a momentum share of the way towards them;
    evaluation uses the running estimates.  eps is added to the variance:
    at 0 a constant channel (zero variance) would turn into NaN.
    """

    eps = 1e-5
    momentum = 0.1

    def __init__(self, name, channels):
        super().__init__(name)
        self.channels = _require_int(name, "channels", channels, 1)

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
        return y, ((xhat, invstd.astype(x.dtype)) if train else None)

    def backward(self, dy, cache, params, ws=None, need_dx=True):
        xhat, invstd = cache
        tmp = _array(ws, Workspace.TMP, dy.shape, np.result_type(dy, xhat))
        dgamma = np.multiply(dy, xhat, out=tmp).sum(axis=(0, 2, 3))
        dbeta = dy.sum(axis=(0, 2, 3))
        grads = {f"{self.name}.gamma": dgamma, f"{self.name}.beta": dbeta}
        if not need_dx:
            return None, grads
        # (g*invstd/m) * (m*dy - dbeta - xhat*dgamma), Ioffe & Szegedy: in place, in this order
        g = params[f"{self.name}.gamma"]
        m = dy.size // dy.shape[1]
        dx = np.multiply(dy, m, out=_grad(ws, dy, dy.shape, np.result_type(dy, g)))
        dx -= dbeta[None, :, None, None]
        dx -= np.multiply(xhat, dgamma[None, :, None, None], out=tmp)
        dx *= (g * invstd / m)[None, :, None, None]
        return dx, grads


class LeakyReLU(Layer):
    slope = 0.01

    def forward(self, x, params, state, train, ws=None):
        # For 0 < slope < 1, max(x, slope*x) is x where x >= 0 and slope*x where
        # x < 0, bit for bit, with -0.0, an underflowing slope*x and +-inf.  Of two
        # NaNs np.maximum returns the first, so a NaN x passes through unchanged.
        y = np.multiply(np.asarray(self.slope, dtype=x.dtype), x)
        np.maximum(x, y, out=y)
        return y, (np.less(x, 0, out=_array(ws, f"{self.name}.mask", x.shape, bool)) if train else None)

    def backward(self, dy, cache, params, ws=None, need_dx=True):
        if not need_dx:
            return None, {}
        neg = cache
        dx = _grad(ws, dy, neg.shape, dy.dtype)
        # the factor's bits, one's where x >= 0 and slope's where x < 0, built in dx
        # itself as bits(1) ^ (neg * (bits(1) ^ bits(slope))): no index array
        one, slope = np.array([1, self.slope], dtype=dy.dtype).view(f"u{dy.itemsize}")
        bits = np.multiply(neg, one ^ slope, out=dx.view(one.dtype))
        bits ^= one
        dx *= dy
        return dx, {}


class MaxPool2D(Layer):
    """Non-overlapping max pooling; gradients route to the first maximum.

    Windows are scanned row-major and +0.0 ties with -0.0.  A window that
    holds a NaN pools to its first NaN and routes its gradient there.
    """

    def __init__(self, name, size):
        super().__init__(name)
        self.size = _require_int(name, "pool size", size, 2)

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

    def backward(self, dy, cache, params, ws=None, need_dx=True):
        if not need_dx:
            return None, {}
        x, y = cache
        # y holds the bits of its window's first maximum, so the first element
        # with the same bits is the one to route dy to (this also finds NaNs).
        # Each gradient is its bit pattern times the 0/1 hit mask: exactly dy or
        # +0.0, with no 0*inf and no -0.0.
        ybits, dybits = y.view(f"u{y.itemsize}"), dy.view(f"u{dy.itemsize}")
        dx = _grad(ws, dy, x.shape, dy.dtype)
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

    def backward(self, dy, cache, params, ws=None, need_dx=True):
        return (dy.reshape(cache) if need_dx else None), {}


class Dense(Kernel):
    bias = True

    def __init__(self, name, in_features, out_features):
        in_features = _require_int(name, "in_features", in_features, 1)
        super().__init__(name, (_require_int(name, "out_features", out_features, 1), in_features))

    def out_shape(self, s):
        return self.weight_shape[:1]

    def forward(self, x, params, state, train, ws=None):
        return x @ params[self.weight_name].T + params[f"{self.name}.b"], x

    def backward(self, dy, cache, params, ws=None, need_dx=True):
        x = cache
        grads = {self.weight_name: dy.T @ x, f"{self.name}.b": dy.sum(axis=0)}
        return (dy @ params[self.weight_name] if need_dx else None), grads
