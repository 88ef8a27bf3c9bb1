"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class AdamState:
    """Moment estimates and the shared step counter of Adam with BETA1, BETA2 and EPS."""

    def __init__(self, params):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def check(self, params, grads):
        for k, p in params.items():
            if k not in self.m:
                raise ConfigError(f"unknown parameter {k}")
            if k not in grads:
                raise ConfigError(f"missing gradient for {k}")
            if grads[k].shape != p.shape or self.m[k].shape != p.shape:
                raise ConfigError(f"shape mismatch for {k}")


def adam_step(params, grads, state: AdamState, lr):
    """Bias-corrected Adam update, in place via two scratch arrays per tensor; returns (params, state)."""
    if not 0 < lr < np.inf:  # NaN fails both comparisons
        raise ConfigError(f"lr must be > 0 and finite, got {lr}")
    state.check(params, grads)
    state.t += 1
    c1 = 1.0 - BETA1**state.t
    c2 = 1.0 - BETA2**state.t
    for k, p in params.items():
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        a, b = np.empty_like(p), np.empty_like(p)
        m += np.multiply(1.0 - BETA1, np.subtract(g, m, out=a), out=a)
        v += np.multiply(1.0 - BETA2, np.subtract(np.multiply(g, g, out=a), v, out=a), out=a)
        np.multiply(lr, np.divide(m, c1, out=a), out=a)
        p -= np.divide(a, np.add(np.sqrt(np.divide(v, c2, out=b), out=b), EPS, out=b), out=a)
    return params, state
