"""Shape-manipulation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["Flatten"]


class Flatten(Module):
    """Collapse all per-sample dimensions: (R, B, ...) -> (R, B, prod(...))."""

    def __init__(self):
        super().__init__()
        self._reset()

    def _reset(self) -> None:
        self._x_shape: tuple | None = None

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        return 0, (int(np.prod(shape)),)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output.reshape(self._x_shape)
        self._x_shape = None
        return grad
