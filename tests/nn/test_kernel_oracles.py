"""Bit-exact oracles for the gather-based conv and pool kernels.

``im2col`` is one gather through a cached per-image index, and
``MaxPool2d`` reads each window's winner with one flat ``take`` and
routes its gradient with one ``np.bincount`` over the winners only.
The references below are the kernels those replaced: the per-tap
strided-copy ``im2col``, and the max pool that picks winners by 2-D
fancy indexing and folds a dense ``(N*OH*OW*C, K*K)`` gradient scratch
with ``col2im``.  Every result must match them bit for bit
(``.view(np.int64)`` equality), not merely within a tolerance.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.nn import MaxPool2d
from repro.nn.functional import col2im, conv_output_size, im2col

SPECIALS = (0.0, -0.0, np.nan, np.inf, -np.inf)


def reference_im2col(x, kernel_h, kernel_w, stride, padding):
    """Per-tap strided copy: one (N, OH, OW, C) slab per kernel tap."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)
    padded = np.zeros(
        (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
    )
    padded[:, :, padding : padding + h, padding : padding + w] = x
    cols = np.empty((n, out_h, out_w, c, kernel_h, kernel_w), dtype=x.dtype)
    for i in range(kernel_h):
        for j in range(kernel_w):
            cols[:, :, :, :, i, j] = padded[
                :, :, i : i + stride * out_h : stride,
                j : j + stride * out_w : stride,
            ].transpose(0, 2, 3, 1)
    return cols.reshape(n * out_h * out_w, c * kernel_h * kernel_w)


def reference_maxpool(x, kernel, stride, grad_output):
    """Max pool forward and backward through a dense gradient scratch."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    patches = reference_im2col(x, kernel, kernel, stride, 0).reshape(
        -1, kernel * kernel
    )
    rows = np.arange(patches.shape[0])
    argmax = patches.argmax(axis=1)
    out = patches[rows, argmax].reshape(n, out_h, out_w, c)
    scratch = np.zeros(patches.shape, dtype=np.float64)
    scratch[rows, argmax] = grad_output.transpose(0, 2, 3, 1).ravel()
    grad = col2im(
        scratch.reshape(n * out_h * out_w, -1), x.shape, kernel, kernel,
        stride, 0,
    )
    return out.transpose(0, 3, 1, 2), grad


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.int64),
        np.ascontiguousarray(want).view(np.int64),
    )


def images_with_specials(rng, shape):
    """Gaussian images with zeros of both signs, NaN and infinities."""
    x = rng.normal(size=shape)
    spots = rng.random(shape) < 0.1
    x[spots] = rng.choice(SPECIALS, size=int(spots.sum()))
    return x


class TestIm2colOracle:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize(
        "kernel,stride,padding",
        list(itertools.product((1, 2, 3), (1, 2), (0, 1, 2))),
    )
    def test_matches_per_tap_copy(self, kernel, stride, padding, batch):
        rng = np.random.default_rng(100 * kernel + 10 * stride + padding)
        x = images_with_specials(rng, (batch, 2, 5, 7))  # H != W
        want = reference_im2col(x, kernel, kernel, stride, padding)
        assert_same_bits(im2col(x, kernel, kernel, stride, padding), want)
        # The in-place form writes the same rows into the caller's buffer.
        out = np.full(want.shape, np.nan)
        assert im2col(x, kernel, kernel, stride, padding, out=out) is out
        assert_same_bits(out, want)

    def test_strided_input_view(self):
        """A conv's channels-last output view gathers like a copy of it."""
        rng = np.random.default_rng(7)
        x = images_with_specials(rng, (4, 6, 5, 3)).transpose(0, 3, 1, 2)
        assert not x.flags.c_contiguous
        assert_same_bits(
            im2col(x, 3, 3, 2, 1),
            reference_im2col(np.ascontiguousarray(x), 3, 3, 2, 1),
        )


class TestMaxPoolOracle:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @pytest.mark.parametrize(
        "kernel,stride", [(2, 2), (3, 1), (3, 2)],
        ids=["disjoint", "overlap-s1", "overlap-s2"],
    )
    def test_matches_dense_scratch(self, kernel, stride, batch):
        rng = np.random.default_rng(10 * kernel + stride + batch)
        shape = (batch, 2, 6, 7)  # H != W
        # A few distinct levels make tied maxima common; ±0.0, NaN and
        # ±inf exercise argmax's first-winner rule on special values.
        x = rng.choice(
            np.array((-1.0, 1.0, 2.0) + SPECIALS), size=shape
        )
        out_h = conv_output_size(shape[2], kernel, stride, 0)
        out_w = conv_output_size(shape[3], kernel, stride, 0)
        grad_output = rng.normal(size=(batch, 2, out_h, out_w))
        grad_output[rng.random(grad_output.shape) < 0.1] = -0.0

        want_out, want_grad = reference_maxpool(x, kernel, stride, grad_output)
        pool = MaxPool2d(kernel, stride)
        assert_same_bits(pool.forward(x), want_out)
        assert_same_bits(pool.backward(grad_output), want_grad)
