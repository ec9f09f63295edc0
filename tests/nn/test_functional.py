"""Tests for im2col/col2im and one-hot, and the softmax oracle (tests/nn/softmax.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional
from repro.nn.functional import (
    col2im,
    conv_output_size,
    im2col,
    one_hot,
)
from tests.nn.softmax import log_softmax, softmax


class TestConvOutputSize:
    @pytest.mark.parametrize(
        "size,kernel,stride,padding,expected",
        [(8, 3, 1, 0, 6), (8, 3, 1, 1, 8), (8, 2, 2, 0, 4), (7, 3, 2, 1, 4)],
    )
    def test_known_values(self, size, kernel, stride, padding, expected):
        assert conv_output_size(size, kernel, stride, padding) == expected

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2Col:
    def test_patch_content_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(x, 1, 1, 1, 0)
        assert cols.shape == (16, 1)
        assert np.array_equal(cols.ravel(), np.arange(16.0))

    def test_first_patch(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = im2col(x, 2, 2, 1, 0)
        assert np.array_equal(cols[0], [0, 1, 4, 5])

    def test_padding_zeroes(self):
        x = np.ones((1, 1, 2, 2))
        cols = im2col(x, 3, 3, 1, 1)
        # Corner patch touches 5 padded zeros + 4 ones.
        assert cols[0].sum() == 4

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5, 5))
        weight = rng.normal(size=(4, 3, 3, 3))
        cols = im2col(x, 3, 3, 1, 0)
        out = (cols @ weight.reshape(4, -1).T).reshape(2, 3, 3, 4)
        out = out.transpose(0, 3, 1, 2)

        naive = np.zeros((2, 4, 3, 3))
        for n in range(2):
            for f in range(4):
                for i in range(3):
                    for j in range(3):
                        naive[n, f, i, j] = np.sum(
                            x[n, :, i : i + 3, j : j + 3] * weight[f]
                        )
        assert np.allclose(out, naive)

    def test_out_buffer_must_be_c_contiguous(self):
        x = np.ones((2, 3, 4, 4))
        fortran = np.empty((2 * 9, 3 * 4), order="F")
        with pytest.raises(ValueError, match="C-contiguous"):
            im2col(x, 2, 2, 1, 0, out=fortran)

    def test_out_buffer_dtype_and_shape_checked(self):
        x = np.ones((2, 3, 4, 4))
        with pytest.raises(ValueError):
            im2col(x, 2, 2, 1, 0, out=np.empty((18, 12), dtype=np.float32))
        with pytest.raises(ValueError):
            im2col(x, 2, 2, 1, 0, out=np.empty((18, 13)))

    def test_index_shared_across_batch_sizes(self, monkeypatch):
        """Training and eval batch sizes gather through one index entry."""
        monkeypatch.setattr(functional, "_FOLD_INDEX_CACHE", {})
        for batch in (8, 4, 3):
            im2col(np.ones((batch, 2, 5, 7)), 3, 3, 1, 1)
        assert len(functional._FOLD_INDEX_CACHE) == 1

    @given(
        st.integers(1, 3),  # kernel
        st.integers(1, 2),  # stride
        st.integers(0, 1),  # padding
    )
    @settings(max_examples=20, deadline=None)
    def test_col2im_is_adjoint(self, kernel, stride, padding):
        """⟨im2col(x), c⟩ == ⟨x, col2im(c)⟩ — the defining adjoint identity."""
        rng = np.random.default_rng(kernel * 10 + stride)
        shape = (2, 2, 5, 5)
        x = rng.normal(size=shape)
        cols = im2col(x, kernel, kernel, stride, padding)
        c = rng.normal(size=cols.shape)
        lhs = float(np.sum(cols * c))
        rhs = float(np.sum(x * col2im(c, shape, kernel, kernel, stride, padding)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = np.random.default_rng(0).normal(size=(6, 4)) * 10
        probs = softmax(logits)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs >= 0).all()

    def test_shift_invariance(self):
        logits = np.array([[1.0, 2.0, 3.0]])
        assert np.allclose(softmax(logits), softmax(logits + 100.0))

    def test_extreme_values_stable(self):
        probs = softmax(np.array([[1000.0, 0.0, -1000.0]]))
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

    def test_log_softmax_consistent(self):
        logits = np.random.default_rng(1).normal(size=(4, 5))
        assert np.allclose(log_softmax(logits), np.log(softmax(logits)))


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        assert np.array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.array([3]), 3)
        with pytest.raises(ValueError, match="out of range"):
            one_hot(np.array([-1]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError, match="1-D"):
            one_hot(np.zeros((2, 2), dtype=int), 3)
