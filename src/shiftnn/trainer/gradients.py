"""Gradient rules for the non-differentiable quantizer.

Weights use the straight-through estimator: the loss gradient w.r.t. the
quantized weights is applied to the full-precision master copy
unchanged.  Thresholds get a real gradient by relaxing each hard gate
1(||r|| > t) to a sigmoid of ((||r|| - t) / tau) during the backward
pass, with the rounding step itself passed through (slope 1).
"""

from __future__ import annotations

import numpy as np

from ..quant import ExponentRange, ResidualTrace, round_pow2


def sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def threshold_grad(residuals, norms, values, upstream, t, tau):
    """d(upstream . Q) / dt via the relaxed-gate recursion.

    residuals/norms/values are per-round arrays shaped (k, F, n), (k, F)
    and (k, F, n): the residual entering each round, its L2 norm, and
    the decoded rounding of that residual.  upstream is dL/dw^q shaped
    (F, n).  Works on either the hard forward trace (production) or a
    soft surrogate trace (gradient checks).

    Round l contributes
        sigmoid'((||r_l|| - t_l)/tau) / tau * (d||r_l||/dt_j - 1(l=j)) * R(r_l)
      + sigmoid((||r_l|| - t_l)/tau) * dr_l/dt_j
    where dr_l/dt_j is minus the accumulated gradient of the partial sum
    and the rounding passes gradients straight through.  Returns a
    float64 vector of length k.
    """
    k, F, n = values.shape
    t = np.asarray(t, dtype=np.float64).reshape(-1)[:k]
    upstream = upstream.reshape(F, n).astype(np.float64)
    res = residuals.reshape(k, F, n).astype(np.float64)
    norms = norms.reshape(k, F).astype(np.float64)
    vals = values.reshape(k, F, n).astype(np.float64)

    safe = np.where(norms > 0, norms, 1.0)
    rhat = res / safe[:, :, None]
    rhat[norms == 0] = 0.0
    z = (norms - t[:, None]) / tau
    sig = sigmoid(z)
    dsig = sig * (1.0 - sig) / tau  # chain factor 1/tau applied once here

    out = np.zeros(k, dtype=np.float64)
    for j in range(k):
        P = np.zeros((F, n), dtype=np.float64)
        for l in range(k):
            dnorm = -(rhat[l] * P).sum(axis=1)
            delta = 1.0 if l == j else 0.0
            contrib = dsig[l][:, None] * (dnorm - delta)[:, None] * vals[l] - sig[l][:, None] * P
            P = P + contrib
        out[j] = (upstream * P).sum()
    return out


def threshold_grad_from_trace(trace: ResidualTrace, upstream, t, tau):
    """Production form: relaxed gradient evaluated on the hard forward trace."""
    k = trace.k
    values = trace.rng.decode(trace.codes)
    return threshold_grad(trace.residuals[:k], trace.norms[:k], values, upstream, t, tau)


def surrogate_trace(w, t, tau, k, rng: ExponentRange, frozen=None):
    """Fully relaxed quantizer: every gate is a sigmoid, forward included.

    Used for gradient checks.  With frozen=None the rounding is applied
    normally and the per-round offsets R(r_l) - r_l are returned; passing
    those offsets back in re-evaluates the same function with the
    rounding linearized around the base point (values r_l + c_l), which
    is the function whose exact gradient the straight-through convention
    computes.

    Returns (q, residuals, norms, values, offsets), arrays per round.
    """
    w = np.asarray(w, dtype=np.float64)
    F = w.shape[0]
    r = w.reshape(F, -1).copy()
    n = r.shape[1]
    t = np.asarray(t, dtype=np.float64).reshape(-1)[:k]
    residuals = np.zeros((k, F, n))
    norms = np.zeros((k, F))
    values = np.zeros((k, F, n))
    offsets = np.zeros((k, F, n))
    q = np.zeros((F, n))
    for l in range(k):
        residuals[l] = r
        norms[l] = np.sqrt((r * r).sum(axis=1))
        if frozen is None:
            v = rng.decode(round_pow2(r, rng))
            offsets[l] = v - r
        else:
            offsets[l] = frozen[l]
            v = r + frozen[l]
        values[l] = v
        g = sigmoid((norms[l] - t[l]) / tau)
        q = q + g[:, None] * v
        r = r - g[:, None] * v
    return q.reshape(w.shape), residuals, norms, values, offsets
