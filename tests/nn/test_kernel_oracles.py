"""Bit-exact oracles for the gather-based conv and pool kernels and ReLU.

``im2col`` is one gather through a cached per-image index, and
``MaxPool2d`` finds each window's first maximum with a sweep over the
tap columns, reads the winner with one flat ``take`` and routes its
gradient with one ``np.bincount`` over the winners only.  ``ReLU`` is
``np.maximum`` into a C-contiguous output plus a mask multiply.  The
references below are the kernels those replaced: the per-tap
strided-copy ``im2col``; the max pool that picks winners with
``argmax`` and 2-D fancy indexing and folds a dense
``(N*OH*OW*C, K*K)`` gradient scratch with ``col2im``; and the
``np.where`` ReLU.  Every result must match them bit for bit
(``.view(np.int64)`` equality), not merely within a tolerance, except
where a test states the difference.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.nn import MaxPool2d, ReLU
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


def reference_relu(x, grad_output):
    """The ``np.where`` ReLU forward and backward."""
    mask = x > 0
    return np.where(mask, x, 0.0), np.where(mask, grad_output, 0.0)


def assert_same_bits(got, want, dtype=np.float64):
    assert got.shape == want.shape
    assert got.dtype == want.dtype == dtype
    ints = np.int64 if dtype == np.float64 else np.int32
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(ints),
        np.ascontiguousarray(want).view(ints),
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


def check_maxpool(x, kernel, stride, rng):
    """Forward and backward against the argmax reference; returns out."""
    batch, channels, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, 0)
    out_w = conv_output_size(w, kernel, stride, 0)
    grad_output = rng.normal(size=(batch, channels, out_h, out_w))
    grad_output[rng.random(grad_output.shape) < 0.1] = -0.0

    want_out, want_grad = reference_maxpool(x, kernel, stride, grad_output)
    pool = MaxPool2d(kernel, stride)
    # One row of the worker axis: the layer folds it into the batch.
    out = pool.forward(x[None])[0]
    assert_same_bits(out, want_out)
    assert_same_bits(pool.backward(grad_output[None])[0], want_grad)
    return out


POOL_GEOMETRIES = pytest.mark.parametrize(
    "kernel,stride", [(2, 2), (3, 1), (3, 2)],
    ids=["disjoint", "overlap-s1", "overlap-s2"],
)
# A few distinct levels make tied maxima common; ±0.0 and ±inf tie with
# each other or win, and no NaN sends the call to the argmax fallback.
NAN_FREE_LEVELS = np.array((-1.0, 1.0, 2.0, 0.0, -0.0, np.inf, -np.inf))


class TestMaxPoolOracle:
    @pytest.mark.parametrize("batch", [1, 3, 64])
    @POOL_GEOMETRIES
    def test_matches_dense_scratch(self, kernel, stride, batch):
        rng = np.random.default_rng(10 * kernel + stride + batch)
        shape = (batch, 2, 6, 7)  # H != W
        # With NaN among the levels nearly every case holds one, so
        # these exercise argmax's first-NaN rule through the fallback.
        x = rng.choice(
            np.array((-1.0, 1.0, 2.0) + SPECIALS), size=shape
        )
        check_maxpool(x, kernel, stride, rng)

    @pytest.mark.parametrize("batch", [1, 3, 64])
    @POOL_GEOMETRIES
    def test_nan_free_ties_take_the_first_maximum(self, kernel, stride, batch):
        rng = np.random.default_rng(1000 + 10 * kernel + stride + batch)
        x = rng.choice(NAN_FREE_LEVELS, size=(batch, 2, 6, 7))
        check_maxpool(x, kernel, stride, rng)

    @POOL_GEOMETRIES
    def test_single_nan_window(self, kernel, stride):
        rng = np.random.default_rng(2000 + 10 * kernel + stride)
        x = rng.choice(NAN_FREE_LEVELS, size=(3, 2, 6, 7))
        # The top-left corner is tap 0 of window (0, 0) and of no other
        # window, so one window holds the NaN, and it wins there even
        # though larger taps follow it.
        x[1, 1, 0, 0] = np.nan
        out = check_maxpool(x, kernel, stride, rng)
        assert np.isnan(out[1, 1, 0, 0])
        assert np.isnan(out).sum() == 1


RELU_SPECIALS = (0.0, -0.0, np.inf, -np.inf)
# Memory layouts ReLU reads: C-contiguous NCHW, the (N, C, H, W) view of
# a conv's channels-last GEMM output, and the program's (R, B, C, H, W)
# view of the same.
RELU_LAYOUTS = {
    "c-contiguous": ((2, 3, 4, 5), None),
    "channels-last": ((2, 4, 5, 3), (0, 3, 1, 2)),
    "worker-channels-last": ((2, 3, 4, 5, 3), (0, 1, 4, 2, 3)),
}


def relu_case(rng, layout, dtype):
    """Input with ±0.0 and ±inf in ``layout``; NCHW gradient with −0.0."""
    memory, axes = RELU_LAYOUTS[layout]
    x = rng.normal(size=memory)
    spots = rng.random(memory) < 0.2
    x[spots] = rng.choice(RELU_SPECIALS, size=int(spots.sum()))
    x = x.astype(dtype)
    if axes is not None:
        x = x.transpose(axes)
    grad_output = rng.normal(size=x.shape).astype(dtype)
    grad_output[rng.random(x.shape) < 0.2] = -0.0
    return x, grad_output


class TestReLUOracle:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", sorted(RELU_LAYOUTS))
    def test_matches_where(self, layout, dtype):
        rng = np.random.default_rng(len(layout))
        x, grad_output = relu_case(rng, layout, dtype)
        want_out, want_grad = reference_relu(x, grad_output)
        relu = ReLU()
        assert_same_bits(relu.forward(x), want_out, dtype)
        grad = relu.backward(grad_output)
        on = x > 0
        assert_same_bits(grad[on], want_grad[on], dtype)
        # Masked off, both forms give a zero, but ``grad * 0.0`` keeps
        # the gradient's sign where ``np.where`` wrote +0.0.
        off = ~on
        assert off.any() and (grad_output[off] != 0).any()
        assert (grad[off] == want_grad[off]).all()
        np.testing.assert_array_equal(
            np.signbit(grad[off]), np.signbit(grad_output[off])
        )

    def test_nan_input_propagates(self):
        x = np.array([np.nan, -1.0, 2.0, -0.0])
        assert reference_relu(x, x)[0][0] == 0.0  # where the old form differs
        relu = ReLU()
        out = relu.forward(x)
        assert np.isnan(out[0])
        np.testing.assert_array_equal(out[1:], [0.0, 2.0, 0.0])
        assert not np.signbit(out[3])
        # NaN is not > 0, so it is masked off in the backward.
        np.testing.assert_array_equal(relu.backward(np.ones(4)), [0, 0, 1, 0])

    def test_masked_off_gradient_semantics(self):
        x = np.array([-1.0, -1.0, -1.0, -1.0, 3.0])
        grad_output = np.array([-2.0, 2.0, -np.inf, np.nan, -5.0])
        want = reference_relu(x, grad_output)[1]
        relu = ReLU()
        relu.forward(x)
        # inf * 0.0 sets numpy's "invalid" flag; the model's gradient
        # paths run under np.errstate and ignore it.
        with np.errstate(invalid="ignore"):
            grad = relu.backward(grad_output)
        # A negative gradient gives -0.0 (was +0.0) ...
        assert grad[0] == 0.0 and np.signbit(grad[0])
        assert want[0] == 0.0 and not np.signbit(want[0])
        assert grad[1] == 0.0 and not np.signbit(grad[1])
        # ... and an infinite or NaN one gives NaN (was 0.0).
        assert np.isnan(grad[2:4]).all()
        assert (want[2:4] == 0.0).all()
        assert grad[4] == -5.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", sorted(RELU_LAYOUTS))
    def test_layout_and_dtype_contract(self, layout, dtype):
        rng = np.random.default_rng(3)
        x, grad_output = relu_case(rng, layout, dtype)
        assert x.flags.c_contiguous == (layout == "c-contiguous")
        relu = ReLU()
        out = relu.forward(x)
        assert out.flags.c_contiguous and out.dtype == dtype
        assert relu._mask.flags.c_contiguous
        grad = relu.backward(grad_output)
        assert grad.flags.c_contiguous and grad.dtype == dtype
