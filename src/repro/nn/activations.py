"""The ReLU activation layer."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU"]


class ReLU(Module):
    """max(x, 0).

    The output and the mask are C-contiguous whatever ``x``'s strides
    are: a conv hands on a channels-last view, which ReLU reads once,
    so the next layer and the (C-contiguous) backward gradients meet
    matching layouts.  A NaN input propagates to the output.
    """

    def __init__(self):
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.maximum(x, 0.0, out=np.empty(x.shape, dtype=x.dtype))
        self._mask = out > 0
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        # Masked-off entries become grad * 0.0: -0.0 for a negative
        # gradient, NaN for an infinite one (the gradient paths run
        # under np.errstate, which ignores the "invalid" flag it sets).
        grad = grad_output * self._mask
        self._mask = None
        return grad

