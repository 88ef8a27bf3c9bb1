"""Classification loss."""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def cross_entropy(logits, labels):
    """Mean negative log softmax at the true class.

    Returns (loss, dloss/dlogits) with the gradient already divided by
    the batch size: (softmax - onehot) / N.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match batch {n}")
    if not np.issubdtype(labels.dtype, np.integer):  # bool is not an integer dtype
        raise DataError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= c:
        raise DataError(f"label out of range [0, {c})")
    z = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(z)
    sumexp = expz.sum(axis=1, keepdims=True)
    logp = z - np.log(sumexp)
    loss = -logp[np.arange(n), labels].mean()
    grad = expz / sumexp
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return float(loss), grad.astype(logits.dtype, copy=False)
