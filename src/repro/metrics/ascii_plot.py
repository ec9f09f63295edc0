"""Terminal plots for training curves.

The examples and the CLI render accuracy curves without any plotting
dependency, as one-line sparklines for compact comparisons.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sparkline", "compare_curves"]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values, low: float | None = None, high: float | None = None) -> str:
    """One-line block-character rendering of a series.

    Non-finite entries render as blanks (training histories legitimately
    contain them, e.g. ``train_loss[0]`` is NaN before any step).
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot sparkline an empty series")
    finite = np.isfinite(values)
    if not finite.any():
        return " " * values.size
    low = float(values[finite].min()) if low is None else float(low)
    high = float(values[finite].max()) if high is None else float(high)
    if high - low < 1e-12:
        return "".join(_BLOCKS[0] if ok else " " for ok in finite)
    scaled = np.where(finite, (values - low) / (high - low), 0.0)
    indices = np.clip(
        (scaled * (len(_BLOCKS) - 1)).round().astype(int),
        0,
        len(_BLOCKS) - 1,
    )
    return "".join(
        _BLOCKS[i] if ok else " " for i, ok in zip(indices, finite)
    )


def compare_curves(histories: dict, *, width: int = 40) -> str:
    """Sparkline comparison of several histories' accuracy curves."""
    if not histories:
        raise ValueError("no histories to compare")
    all_values = [
        value
        for history in histories.values()
        for value in history.test_accuracy
        if np.isfinite(value)
    ]
    if not all_values:
        raise ValueError("no finite accuracy values to compare")
    low, high = min(all_values), max(all_values)
    name_width = max(len(name) for name in histories) + 2
    lines = []
    for name, history in histories.items():
        values = history.test_accuracy
        if len(values) > width:
            take = np.linspace(0, len(values) - 1, width).astype(int)
            values = [values[i] for i in take]
        lines.append(
            name.ljust(name_width)
            + sparkline(values, low, high)
            + f"  {history.final_accuracy:.3f}"
        )
    return "\n".join(lines)
