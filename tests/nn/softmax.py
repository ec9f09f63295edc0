"""Softmax and log-softmax as two separate passes: the loss's oracle.

``SoftmaxCrossEntropyLoss.forward`` computes the shifted logits, their
exponentials and the row sums once and builds both the probabilities
and the picked log-probabilities from them.  These textbook functions
each make their own pass over the logits, so the loss is checked
against code it does not share.
"""

from __future__ import annotations

import numpy as np

__all__ = ["softmax", "log_softmax"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
