"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np


class AdamState:
    """First/second moment estimates plus the shared step counter."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def check(self, params, grads):
        for k, p in params.items():
            if k not in self.m:
                raise ValueError(f"unknown parameter {k}")
            if k not in grads:
                raise ValueError(f"missing gradient for {k}")
            if grads[k].shape != p.shape or self.m[k].shape != p.shape:
                raise ValueError(f"shape mismatch for {k}")


def adam_step(params, grads, state: AdamState, lr):
    """Bias-corrected Adam update, in place via two scratch arrays per tensor; returns (params, state)."""
    if lr <= 0:
        raise ValueError(f"lr must be > 0, got {lr}")
    state.check(params, grads)
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for k, p in params.items():
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        a, b = np.empty_like(p), np.empty_like(p)
        m += np.multiply(1.0 - state.beta1, np.subtract(g, m, out=a), out=a)
        v += np.multiply(1.0 - state.beta2, np.subtract(np.multiply(g, g, out=a), v, out=a), out=a)
        np.multiply(lr, np.divide(m, c1, out=a), out=a)
        p -= np.divide(a, np.add(np.sqrt(np.divide(v, c2, out=b), out=b), state.eps, out=b), out=a)
    return params, state
