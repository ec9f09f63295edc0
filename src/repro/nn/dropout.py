"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import make_rng
from repro.utils.validation import check_probability

__all__ = ["Dropout"]


class Dropout(Module):
    """Zero each element with probability ``p`` during training.

    Uses inverted scaling so evaluation is the identity.  The layer owns a
    seeded generator for reproducible masks and draws one mask per
    forward over the whole ``(R, B, ...)`` input, row after row, so
    row ``r`` gets the ``r``-th block of the stream.  Layers sharing a
    generator draw in program order: every row of the first layer, then
    every row of the next.
    """

    def __init__(self, p: float = 0.5, rng: np.random.Generator | int | None = None):
        super().__init__()
        self.p = check_probability(p, "p")
        if self.p >= 1.0:
            raise ValueError("dropout probability must be < 1")
        self.rng = make_rng(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        grad = grad_output * self._mask
        self._mask = None
        return grad
