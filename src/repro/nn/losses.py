"""Loss functions.

Each loss exposes ``forward(predictions, targets) -> (R,) losses`` over
``(R, B, C)`` predictions and ``(R, B)`` targets, and ``backward() ->
grad_wrt_predictions``.  Row ``r``'s loss is the *mean* over its ``B``
samples, which is what the paper's per-iteration updates use, and the
gradient is of each row's own mean loss.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import one_hot

__all__ = ["Loss", "MSELoss", "SoftmaxCrossEntropyLoss"]


class Loss:
    """Base interface for losses."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        return self.forward(predictions, targets)


class MSELoss(Loss):
    """Mean squared error.

    For classification workloads (the paper's *linear regression* rows),
    integer class labels are one-hot encoded automatically, matching the
    common linear-regression-on-one-hot setup.
    """

    def __init__(self):
        self._diff: np.ndarray | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        targets = np.asarray(targets)
        if targets.ndim == 2 and predictions.shape[-1] > 1:
            rows, batch = targets.shape
            targets = one_hot(
                targets.ravel(), predictions.shape[-1]
            ).reshape(rows, batch, predictions.shape[-1])
        targets = targets.reshape(predictions.shape).astype(np.float64)
        self._diff = predictions - targets
        return np.mean(self._diff**2, axis=(1, 2))

    def backward(self) -> np.ndarray:
        diff = self._diff
        if diff is None:
            raise RuntimeError("backward called before forward")
        grad = 2.0 * diff / (diff.shape[1] * diff.shape[2])
        self._diff = None
        return grad


class SoftmaxCrossEntropyLoss(Loss):
    """Softmax + cross-entropy over integer class labels.

    One max, one ``exp`` and one row sum per forward serve both the
    probabilities the backward needs and the picked log-probabilities
    ``shifted - log(sum)`` of the loss (numerically stable for any
    finite logits).  The ``exp`` array becomes the probabilities and
    then the backward's gradient in place, so a forward and backward
    allocate one ``(R, B, classes)`` array beyond the shifted logits.
    """

    def __init__(self):
        self._probs: np.ndarray | None = None
        self._picks: tuple | None = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> np.ndarray:
        labels = np.asarray(targets, dtype=np.int64)
        if predictions.ndim != 3:
            raise ValueError(
                f"expected (R, B, classes) logits, got shape {predictions.shape}"
            )
        if labels.shape != predictions.shape[:2]:
            raise ValueError(
                f"labels shape {labels.shape} does not match logits "
                f"{predictions.shape}"
            )
        rows, batch = labels.shape
        # Index of every row's every sample's label logit.
        picks = (np.arange(rows)[:, None], np.arange(batch), labels)
        shifted = predictions - predictions.max(axis=-1, keepdims=True)
        probs = np.exp(shifted)
        total = probs.sum(axis=-1, keepdims=True)
        picked = shifted[picks] - np.log(total[..., 0])
        probs /= total
        self._probs = probs
        self._picks = picks
        return -picked.mean(axis=1)

    def backward(self) -> np.ndarray:
        if self._probs is None or self._picks is None:
            raise RuntimeError("backward called before forward")
        # The probabilities serve one backward, so it edits them in place.
        grad = self._probs
        grad[self._picks] -= 1.0
        grad /= grad.shape[1]
        self._probs = None
        self._picks = None
        return grad
