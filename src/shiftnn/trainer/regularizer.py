"""Residual-norm regularization.

The penalty is a sum of group-Lasso terms, one per quantization round:
lambda_j times the L2 norm of each filter's round-j residual.  Residuals
come from the ungated greedy recursion, independent of the thresholds,
so the j=0 term penalizes whole-filter norms (pruning pressure) and the
j>0 terms penalize what later shift terms would have to absorb.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..quant import ExponentRange, ungated_residual_trace


def check_lambdas(lambdas, k: int) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if lam.shape[0] != k:
        raise ConfigError(f"need {k} regularization coefficients, got {lam.shape[0]}")
    if (lam < 0).any():
        raise ConfigError("regularization coefficients must be nonnegative")
    return lam


def layer_reg_loss(w, lambdas, rng: ExponentRange) -> float:
    """sum_j lambda_j * sum_i ||r_{i,j}||_2 for one layer's filters."""
    lam = check_lambdas(lambdas, len(np.atleast_1d(lambdas)))
    if not lam.any():
        return 0.0
    trace = ungated_residual_trace(np.asarray(w), len(lam), rng)
    return float((lam[:, None] * trace.norms[: len(lam)]).sum())


def layer_reg_grad(w, lambdas, rng: ExponentRange) -> np.ndarray:
    """Gradient of layer_reg_loss w.r.t. the full-precision weights.

    Each round's residual is treated as a direct function of w with unit
    Jacobian (per-term straight-through), which matches the true local
    gradient because the subtracted rounding terms are piecewise
    constant.  The subgradient at a zero-norm residual is 0.
    """
    w = np.asarray(w)
    lam = check_lambdas(lambdas, len(np.atleast_1d(lambdas)))
    grad = np.zeros_like(w, dtype=np.float64)
    if not lam.any():
        return grad.astype(w.dtype, copy=False)
    k = len(lam)
    trace = ungated_residual_trace(w, k, rng)
    flat = grad.reshape(w.shape[0], -1)
    for j in range(k):
        if lam[j] == 0.0:
            continue
        norms = trace.norms[j]
        safe = np.where(norms > 0, norms, 1.0)
        unit = trace.residuals[j] / safe[:, None]
        unit[norms == 0] = 0.0
        flat += lam[j] * unit
    return grad.astype(w.dtype, copy=False)
