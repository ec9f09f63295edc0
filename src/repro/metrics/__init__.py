"""Evaluation metrics and training histories."""

from repro.metrics.ascii_plot import compare_curves, sparkline
from repro.metrics.classification import (
    confusion_matrix,
    macro_f1,
    per_class_accuracy,
)
from repro.metrics.history import TrainingHistory
from repro.metrics.serialization import (
    history_from_dict,
    history_to_dict,
    load_history,
    load_trace_jsonl,
    save_history,
    save_trace_jsonl,
)

__all__ = [
    "TrainingHistory",
    "confusion_matrix",
    "per_class_accuracy",
    "macro_f1",
    "sparkline",
    "compare_curves",
    "history_to_dict",
    "history_from_dict",
    "save_history",
    "load_history",
    "save_trace_jsonl",
    "load_trace_jsonl",
]
