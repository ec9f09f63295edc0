"""Elementwise activation layers."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU", "LeakyReLU", "Sigmoid", "Tanh"]


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


class LeakyReLU(Module):
    """x for x>0, slope*x otherwise."""

    def __init__(self, slope: float = 0.01):
        super().__init__()
        if slope < 0:
            raise ValueError(f"slope must be >= 0, got {slope}")
        self.slope = float(slope)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, self.slope * x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.where(self._mask, grad_output, self.slope * grad_output)
        self._mask = None
        return grad


class Sigmoid(Module):
    """Logistic sigmoid."""

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._out = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * self._out * (1.0 - self._out)
        self._out = None
        return grad


class Tanh(Module):
    """Hyperbolic tangent."""

    def __init__(self):
        super().__init__()
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward called before forward")
        grad = grad_output * (1.0 - self._out**2)
        self._out = None
        return grad
