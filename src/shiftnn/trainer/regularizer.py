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
    if not (np.isfinite(lam) & (lam >= 0)).all():
        raise ConfigError(f"regularization coefficients must be finite and nonnegative, got {lam}")
    return lam


def layer_reg_loss(w, lambdas, rng: ExponentRange) -> float:
    """sum_j lambda_j * sum_i ||r_{i,j}||_2 for one layer's filters."""
    lam = check_lambdas(lambdas, len(np.atleast_1d(lambdas)))
    trace = ungated_residual_trace(np.asarray(w), len(lam), rng)
    return float((lam[:, None] * trace.norms).sum())


def layer_reg_grad(w, lambdas, rng: ExponentRange) -> np.ndarray:
    """Gradient of layer_reg_loss w.r.t. the full-precision weights.

    Each round's residual is treated as a direct function of w with unit
    Jacobian (per-term straight-through), which matches the true local
    gradient because the subtracted rounding terms are piecewise
    constant.  The subgradient at a zero-norm residual is 0.
    """
    w = np.asarray(w)
    lam = check_lambdas(lambdas, len(np.atleast_1d(lambdas)))
    trace = ungated_residual_trace(w, len(lam), rng)
    norms = trace.norms
    scale = np.divide(lam[:, None], norms, out=np.zeros_like(norms), where=norms > 0)
    grad = np.einsum("jf,jfn->fn", scale, trace.replay()[0])
    return grad.reshape(w.shape).astype(w.dtype, copy=False)
