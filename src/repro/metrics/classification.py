"""Classification metrics beyond top-1 accuracy.

Per-class accuracy matters in the x-class non-i.i.d. experiments: a
worker that never saw class c can drag the global model's recall on c,
and these metrics expose that effect (used by the non-iid example).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = [
    "confusion_matrix",
    "per_class_accuracy",
    "macro_f1",
]


def confusion_matrix(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int
) -> np.ndarray:
    """Counts[c_true, c_pred] over the batch."""
    check_positive_int(num_classes, "num_classes")
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    for name, labels in (("y_true", y_true), ("y_pred", y_pred)):
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"{name} labels out of range [0, {num_classes})")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def per_class_accuracy(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int
) -> np.ndarray:
    """Recall per class; NaN for classes absent from ``y_true``."""
    matrix = confusion_matrix(y_true, y_pred, num_classes)
    totals = matrix.sum(axis=1).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(
            totals > 0, np.diag(matrix) / totals, np.nan
        )


def macro_f1(
    y_true: np.ndarray, y_pred: np.ndarray, num_classes: int
) -> float:
    """Unweighted mean of per-class F1 (classes absent from both sides
    are skipped)."""
    matrix = confusion_matrix(y_true, y_pred, num_classes)
    f1_values = []
    for c in range(num_classes):
        tp = matrix[c, c]
        fp = matrix[:, c].sum() - tp
        fn = matrix[c, :].sum() - tp
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            f1_values.append(0.0)
        else:
            f1_values.append(2 * precision * recall / (precision + recall))
    if not f1_values:
        raise ValueError("no classes present in either labels or predictions")
    return float(np.mean(f1_values))
