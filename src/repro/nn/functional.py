"""Stateless tensor operations shared by the layers.

The conv/pool layers are built on the classic im2col/col2im transformation:
patches of the input become rows of a matrix so convolution reduces to one
GEMM, which is the only way to get acceptable conv performance from NumPy.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "one_hot",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a conv/pool along one dimension."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size: input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Rearrange (N, C, H, W) input into patch rows.

    Returns an array of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``
    where each row is one receptive field.  ``out``, when given, must be
    a C-contiguous array of exactly that shape and of ``x``'s dtype, and
    receives the patch rows in place (layers pass a cached scratch
    buffer so repeated same-shape forwards allocate nothing).

    The whole rearrangement is one gather: every image reads its patch
    rows through the same cached per-image fold index (see
    :func:`_fold_indices`), which does not depend on the batch size.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        # Manual zero-padding: np.pad spends more time in Python
        # bookkeeping than this hot path can afford.
        padded = np.zeros(
            (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
        )
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded

    shape = (n * out_h * out_w, c * kernel_h * kernel_w)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif (
        out.shape != shape
        or out.dtype != x.dtype
        or not out.flags.c_contiguous
    ):
        # A non-contiguous ``out`` would reshape to a copy below and
        # silently lose the patch rows.
        raise ValueError(
            f"im2col out buffer must be a C-contiguous {x.dtype} array "
            f"of shape {shape}, got {out.dtype} {out.shape} "
            f"(C-contiguous: {out.flags.c_contiguous})"
        )
    indices = _fold_indices(
        (1, c, h, w), kernel_h, kernel_w, stride, padding, out_h, out_w
    )
    # The index is built from the geometry, so every entry is in range:
    # mode="clip" skips numpy's buffered per-element bounds check.
    np.take(
        x.reshape(n, -1), indices, axis=1, out=out.reshape(n, -1),
        mode="clip",
    )
    return out


# Fold-index buffers, keyed by the full geometry.  Each buffer maps
# every patch element (in the natural (n, oh, ow, c, kh, kw) im2col row
# layout) to its flat position in the padded image: im2col gathers
# through the per-image (n=1) map, and col2im's scatter-add is a single
# ``np.bincount`` pass over the batch-sized map with no transpose copy.
# Geometries are few (one per conv/pool layer shape and batch size),
# but the cache is bounded anyway so pathological callers cannot leak.
_FOLD_INDEX_CACHE: dict[tuple, np.ndarray] = {}
_FOLD_INDEX_CACHE_MAX = 64


def _fold_indices(
    x_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    key = (tuple(x_shape), kernel_h, kernel_w, stride, padding)
    cached = _FOLD_INDEX_CACHE.get(key)
    if cached is not None:
        return cached
    n, c, h, w = x_shape
    padded_h = h + 2 * padding
    padded_w = w + 2 * padding
    rows = (
        stride * np.arange(out_h)[:, None] + np.arange(kernel_h)
    )  # (OH, KH)
    columns = (
        stride * np.arange(out_w)[:, None] + np.arange(kernel_w)
    )  # (OW, KW)
    indices = (
        np.arange(n).reshape(n, 1, 1, 1, 1, 1) * (c * padded_h * padded_w)
        + np.arange(c).reshape(1, 1, 1, c, 1, 1) * (padded_h * padded_w)
        + rows.reshape(1, out_h, 1, 1, kernel_h, 1) * padded_w
        + columns.reshape(1, 1, out_w, 1, 1, kernel_w)
    ).ravel()
    if len(_FOLD_INDEX_CACHE) >= _FOLD_INDEX_CACHE_MAX:
        _FOLD_INDEX_CACHE.clear()
    _FOLD_INDEX_CACHE[key] = indices
    return indices


def col2im(
    cols: np.ndarray,
    x_shape: tuple,
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch rows back to an image.

    Overlapping patches accumulate, which is exactly the gradient of
    ``im2col``.  The scatter runs as one ``np.bincount`` over a cached
    fold-index buffer (patch element -> flat padded-image position), so
    repeated same-shape backwards pay no transpose and no per-tap
    strided loop.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    indices = _fold_indices(
        x_shape, kernel_h, kernel_w, stride, padding, out_h, out_w
    )
    padded = np.bincount(
        indices,
        weights=cols.ravel(),
        minlength=n * c * (h + 2 * padding) * (w + 2 * padding),
    ).reshape(n, c, h + 2 * padding, w + 2 * padding)
    if cols.dtype != padded.dtype:
        padded = padded.astype(cols.dtype)

    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels (N,) -> one-hot matrix (N, num_classes)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
