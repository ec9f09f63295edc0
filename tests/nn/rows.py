"""Binding one layer to copies of its own parameters, for layer tests."""

from __future__ import annotations

import numpy as np


def bind_rows(layer, rows: int = 1) -> np.ndarray:
    """Bind ``layer`` to ``rows`` copies of its parameter vector.

    Returns the zeroed ``(rows, dim)`` gradient matrix its backward
    writes into.
    """
    params = np.tile(layer.flat_buffer().data, (rows, 1))
    grads = np.zeros_like(params)
    layer.bind(params, grads)
    return grads
