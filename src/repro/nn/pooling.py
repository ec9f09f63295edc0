"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import _fold_indices, col2im, conv_output_size, im2col
from repro.nn.module import Module
from repro.utils.validation import check_positive_int

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class _Pool2d(Module):
    """Shared im2col plumbing for max/avg pooling."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(
            stride if stride is not None else kernel_size, "stride"
        )
        self._x_shape: tuple | None = None
        self._out_hw: tuple | None = None

    def _patches(self, x: np.ndarray) -> np.ndarray:
        """Return patches shaped (N*OH*OW*C, K*K)."""
        _, _, h, w = x.shape
        k, s = self.kernel_size, self.stride
        out_h = conv_output_size(h, k, s, 0)
        out_w = conv_output_size(w, k, s, 0)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        # (N*OH*OW, C*K*K) patch rows split into one row per channel.
        return im2col(x, k, k, s, 0).reshape(-1, k * k)


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


class MaxPool2d(_Pool2d):
    """Max pooling; gradient routes to the argmax element of each window."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__(kernel_size, stride)
        # Flat patch-element position of each window's winner.
        self._winners: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        patches = self._patches(x)
        self._winners = _first_max(patches)
        out = np.take(patches, self._winners)
        n, c, _, _ = self._x_shape
        out_h, out_w = self._out_hw
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
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


class AvgPool2d(_Pool2d):
    """Average pooling; gradient spreads uniformly over each window."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        patches = self._patches(x)
        out = patches.mean(axis=1)
        n, c, _, _ = self._x_shape
        out_h, out_w = self._out_hw
        return out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k, s = self.kernel_size, self.stride
        grad_flat = grad_output.transpose(0, 2, 3, 1).ravel()
        # (N*OH*OW*C, K*K) per-window shares are the (N*OH*OW, C*K*K)
        # patch rows col2im folds back.
        grad_patches = np.repeat(
            grad_flat[:, None] / (k * k), k * k, axis=1
        )
        return col2im(grad_patches, self._x_shape, k, k, s, 0)


class GlobalAvgPool2d(Module):
    """Average over the full spatial extent: (N, C, H, W) -> (N, C)."""

    def __init__(self):
        super().__init__()
        self._x_shape: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"expected 4-D input, got shape {x.shape}")
        self._x_shape = x.shape
        return x.mean(axis=(2, 3))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise RuntimeError("backward called before forward")
        n, c, h, w = self._x_shape
        grad = grad_output[:, :, None, None] / (h * w)
        self._x_shape = None
        return np.broadcast_to(grad, (n, c, h, w)).copy()
