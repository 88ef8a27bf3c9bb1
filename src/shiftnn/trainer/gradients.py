"""Gradient rules for the non-differentiable quantizer.

Weights use the straight-through estimator: the loss gradient w.r.t. the
quantized weights is applied to the full-precision master copy
unchanged.  Thresholds get a real gradient by relaxing each hard gate
1(||r|| > t) to a sigmoid of ((||r|| - t) / tau) during the backward
pass, with the rounding step itself passed through (slope 1).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..quant import ResidualTrace

TAU = 1.0  # the temperature train_batch relaxes each gate with


def sigmoid(x):
    """1 / (1 + exp(-x)) as float64, from one exp that never overflows."""
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))  # exp(-|x|); a NaN keeps its sign, as x's own exp does
    return (np.where(pos, 1.0, e) / (1.0 + e)).astype(np.float64, copy=False)


def threshold_grad(residuals, norms, values, upstream, t, tau):
    """d(upstream . Q) / dt via the relaxed-gate recursion.

    residuals/norms/values are per-round arrays shaped (k, F, n), (k, F)
    and (k, F, n): the residual entering each round, its L2 norm, and
    the decoded rounding of that residual.  upstream is dL/dw^q shaped
    (F, n).  Works on either the hard forward trace (production) or a
    soft surrogate trace (gradient checks).  They may be of any float dtype:
    the sweep widens each round's to float64 as it reads them, exactly.

    Round l maps r_l to r_{l+1} = r_l - g_l * R(r_l), with the gate
    g_l = sigmoid((||r_l|| - t_l) / tau) and the rounding passed
    straight through (slope 1).  Since Q = w - r_k, one reverse sweep
    carries the adjoint a = dL/dr_{l+1}, starting from -upstream:
        dL/dt_l = sum_f g'_l * (a . R(r_l))
        a      <- (1 - g_l) * a - g'_l * (a . R(r_l)) * r_l / ||r_l||
    where g'_l = sigmoid' / tau; a zero residual contributes no norm
    term.  Returns a float64 vector of length k; ConfigError unless t has shape (k,).
    """
    k, F, n = values.shape
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (k,):
        raise ConfigError(f"thresholds must be one row of {k} values, got shape {t.shape}")
    gate = sigmoid((norms - t[:, None]) / tau)
    dgate = gate * (1.0 - gate) / tau  # chain factor 1/tau applied once here

    out = np.zeros(k, dtype=np.float64)
    # a is C-ordered whatever upstream's layout, so the einsum's summation order is fixed
    a = np.negative(upstream, dtype=np.float64, order="C").reshape(F, n)
    for l in range(k - 1, -1, -1):
        # dL/dt_l per filter; a float32 operand is cast in 8,192-element chunks, which splits long rows
        dt = dgate[l] * np.einsum("fn,fn->f", a, values[l].astype(np.float64, copy=False))
        out[l] = dt.sum()
        if l == 0:
            break  # nothing reads round 0's adjoint update
        scale = np.divide(dt, norms[l], out=np.zeros(F), where=norms[l] > 0)
        a *= (1.0 - gate[l])[:, None]
        a -= scale[:, None] * residuals[l]  # the product widens residuals[l]
    return out


def threshold_grad_from_trace(trace: ResidualTrace, upstream, tau):
    """Production form: relaxed gradient at the thresholds that gated the hard forward
    trace, its residuals rebuilt in w's dtype (so the trace's w must be unchanged)."""
    residuals, values = trace.replay()
    return threshold_grad(residuals, trace.norms, values, upstream, trace.t, tau)

