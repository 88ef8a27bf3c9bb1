"""Conv2D forward and gradients against a float64 direct-sum reference.

The reference sums over kernel taps straight from the definition of a
strided, zero-padded cross-correlation; it shares no code with the
patch-matrix path.  The cases cover every branch Conv2D.backward
dispatches to: the stride-1 transposed convolution (out_channels <=
in_channels) and the col2im scatter (strided, widening, or stride 1 with
pad >= kernel).  im2col copies x, of every conv, into one plane with row
pitch P = max(W, Wo), and col2im adds into such a plane; the wrapped entries
read +0.0 and add -0.0.  The cases span its geometries: same convs
(P = W = Wo, one run per tap), strided and valid convs (Wo < W), 1x1 convs
(pad 0: a plane with no margin) and (1, 1, 1), whose output is wider than
its input (P = Wo > W).  Each
case runs with and without a Workspace; backward runs on train caches only,
since an eval forward keeps none.
"""

import numpy as np
import pytest

from shiftnn.nn import Conv2D
from shiftnn.nn.layers import Workspace

# (kernel, stride, pad)
CASES = [
    (3, 1, 1),
    (5, 1, 2),
    (3, 1, 0),
    (3, 2, 1),
    (3, 2, 0),
    (1, 1, 0),
    (1, 2, 0),
    (1, 1, 1),
]
TOLERANCE = {np.float64: 1e-12, np.float32: 1e-5}


def reference_conv(x, w, dy, stride, pad):
    """(y, dx, dW) of y = conv(x, w) in float64, tap by tap."""
    x, w, dy = (a.astype(np.float64) for a in (x, w, dy))
    N, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    Ho = (H + 2 * pad - kh) // stride + 1
    Wo = (W + 2 * pad - kw) // stride + 1
    y = np.zeros((N, O, Ho, Wo))
    dxp = np.zeros_like(xp)
    dW = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            rows = slice(i, i + stride * (Ho - 1) + 1, stride)
            cols = slice(j, j + stride * (Wo - 1) + 1, stride)
            tap = xp[:, :, rows, cols]
            y += np.einsum("nchw,oc->nohw", tap, w[:, :, i, j])
            dW[:, :, i, j] = np.einsum("nohw,nchw->oc", dy, tap)
            dxp[:, :, rows, cols] += np.einsum("nohw,oc->nchw", dy, w[:, :, i, j])
    return y, dxp[:, :, pad : pad + H, pad : pad + W], dW


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("batch,workspace", [(1, False), (3, True)])
@pytest.mark.parametrize("C,O", [(4, 3), (3, 4)])
@pytest.mark.parametrize("kernel,stride,pad", CASES)
def test_matches_direct_sum(kernel, stride, pad, C, O, batch, workspace, train, dtype):
    H, W = 7, 6
    layer = Conv2D("L0", C, O, kernel, stride=stride, pad=pad)
    ws = Workspace() if workspace else None
    rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
    params = layer.init_params(rng, dtype)
    assert list(params) == ["L0.W"]  # a conv has no bias
    x = rng.standard_normal((batch, C, H, W)).astype(dtype)
    y, cache = layer.forward(x, params, {}, train=train, ws=ws)
    assert y.shape == (batch,) + layer.out_shape((C, H, W))
    dy = rng.standard_normal(y.shape).astype(dtype)
    ref_y, ref_dx, ref_dW = reference_conv(x, params["L0.W"], dy, stride, pad)
    tol = TOLERANCE[dtype]
    assert y.dtype == dtype and y.flags.c_contiguous
    assert rel_err(y, ref_y) <= tol
    if not train:
        assert cache is None
        return
    dx, grads = layer.backward(dy, cache, params, ws=ws)
    assert list(grads) == ["L0.W"]
    assert dx.dtype == grads["L0.W"].dtype == dtype
    assert dx.shape == x.shape and dx.flags.c_contiguous
    assert rel_err(dx, ref_dx) <= tol
    assert rel_err(grads["L0.W"], ref_dW) <= tol
