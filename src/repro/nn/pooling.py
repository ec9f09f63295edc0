"""Spatial pooling layers.

Pooling acts on each image alone, so every layer here folds the row axis
of an ``(R, B, C, H, W)`` input into the batch axis, pools the
``(R*B, C, H, W)`` images, and unfolds the result.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import _fold_indices, conv_output_size, im2col
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

__all__ = ["MaxPool2d", "GlobalAvgPool2d"]


def _fold(x: np.ndarray) -> np.ndarray:
    """``(R, B, ...)`` -> ``(R*B, ...)``."""
    return x.reshape((x.shape[0] * x.shape[1],) + x.shape[2:])


def _unfold(x: np.ndarray, lead: tuple) -> np.ndarray:
    """``(R*B, ...)`` -> ``(R, B, ...)`` for ``lead = (R, B)``."""
    return x.reshape(lead + x.shape[1:])


def _first_max(patches: np.ndarray) -> np.ndarray:
    """Flat position of each row's first maximum: ``argmax`` row by row.

    numpy's ``argmax(axis=1)`` walks each short row separately; this
    sweeps the K*K tap columns instead.  A running maximum finds each
    row's top value, and a shrinking "not found yet" mask, summed into
    the row offsets, counts the columns before the first one equal to
    it.  ±0.0 compare equal, as they do for ``argmax``.  Only ``argmax``
    knows its rule that the first NaN wins, so a NaN anywhere in the
    maxima sends the whole call to it.
    """
    rows, taps = patches.shape
    winners = np.arange(0, rows * taps, taps)
    top = patches[:, 0].copy()
    for tap in range(1, taps):
        np.maximum(top, patches[:, tap], out=top)
    if np.isnan(top).any():
        return winners + patches.argmax(axis=1)
    not_found = patches[:, 0] != top
    winners += not_found
    for tap in range(1, taps - 1):
        not_found &= patches[:, tap] != top
        winners += not_found
    return winners


class MaxPool2d(Module):
    """Max pooling; gradient routes to the argmax element of each window.

    ``_forward``/``_backward`` pool ``(N, C, H, W)`` images; the public
    methods fold and unfold the row axis around them.
    """

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(
            stride if stride is not None else kernel_size, "stride"
        )
        self._reset()

    def _reset(self) -> None:
        self._x_shape: tuple | None = None
        self._out_hw: tuple | None = None
        self._lead: tuple = ()
        # Flat patch-element position of each window's winner.
        self._winners: np.ndarray | None = None

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        c, h, w = shape
        k, s = self.kernel_size, self.stride
        return 0, (c, conv_output_size(h, k, s, 0), conv_output_size(w, k, s, 0))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._lead = x.shape[:2]
        return _unfold(self._forward(_fold(x)), self._lead)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return _unfold(self._backward(_fold(grad_output)), self._lead)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        # (N*OH*OW, C*K*K) patch rows split into one (N*OH*OW*C, K*K)
        # row per channel.
        patches = im2col(x, k, k, s, 0).reshape(-1, k * k)
        self._winners = _first_max(patches)
        out = np.take(patches, self._winners)
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def _backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._winners is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        k, s = self.kernel_size, self.stride
        out_h, out_w = self._out_hw
        # Only winners receive gradient, so the scatter-add runs over
        # them alone: every other patch element would add +0.0, which
        # never changes a bincount sum that starts at +0.0.
        destinations = _fold_indices(
            self._x_shape, k, k, s, 0, out_h, out_w
        )[self._winners]
        grad = np.bincount(
            destinations,
            weights=grad_output.transpose(0, 2, 3, 1).ravel(),
            minlength=n * c * h * w,
        ).reshape(n, c, h, w)
        self._winners = None
        return grad.astype(grad_output.dtype, copy=False)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent: (R, B, C, H, W) -> (R, B, C)."""

    def __init__(self):
        super().__init__()
        self._reset()

    def _reset(self) -> None:
        self._x_shape: tuple | None = None

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        return 0, shape[:1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5:
            raise ValueError(f"expected 5-D input, got shape {x.shape}")
        self._x_shape = x.shape
        return _unfold(_fold(x).mean(axis=(2, 3)), x.shape[:2])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        h, w = self._x_shape[3:]
        grad = grad_output[..., None, None] / (h * w)
        shape, self._x_shape = self._x_shape, None
        return np.broadcast_to(grad, shape).copy()
