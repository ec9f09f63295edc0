"""Adjoint-identity property tests for linear layers.

For a bias-free linear operator L (Dense or Conv2d), the backward pass
must be its exact adjoint: ⟨L(x), y⟩ = ⟨x, Lᵀ(y)⟩ for all x, y.  This is
a stronger and much faster check than finite differences, and hypothesis
drives it across shapes.  Each case runs one row of the worker axis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2d, Dense
from tests.nn.rows import bind_rows


class TestDenseAdjoint:
    @given(
        st.integers(1, 6),   # batch
        st.integers(1, 8),   # in features
        st.integers(1, 8),   # out features
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identity(self, n, d_in, d_out, seed):
        rng = np.random.default_rng(seed)
        layer = Dense(d_in, d_out, bias=False, rng=seed)
        bind_rows(layer)
        x = rng.normal(size=(1, n, d_in))
        y = rng.normal(size=(1, n, d_out))
        forward = layer.forward(x)
        grad_x = layer.backward(y)
        lhs = float(np.sum(forward * y))
        rhs = float(np.sum(x * grad_x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_weight_gradient_is_outer_product_sum(self, seed):
        rng = np.random.default_rng(seed)
        layer = Dense(4, 3, bias=False, rng=seed)
        grads = bind_rows(layer)
        x = rng.normal(size=(5, 4))
        y = rng.normal(size=(5, 3))
        layer.forward(x[None])
        layer.backward(y[None])
        assert np.allclose(grads[0].reshape(3, 4), y.T @ x)


class TestConvAdjoint:
    @given(
        st.integers(1, 3),   # batch
        st.integers(1, 3),   # in channels
        st.integers(1, 4),   # out channels
        st.integers(1, 3),   # kernel
        st.integers(1, 2),   # stride
        st.integers(0, 1),   # padding
        st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_adjoint_identity(self, n, c_in, c_out, k, stride, pad, seed):
        size = 6
        if size + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        layer = Conv2d(
            c_in, c_out, k, stride=stride, padding=pad, bias=False, rng=seed
        )
        bind_rows(layer)
        x = rng.normal(size=(1, n, c_in, size, size))
        forward = layer.forward(x)
        y = rng.normal(size=forward.shape)
        grad_x = layer.backward(y)
        lhs = float(np.sum(forward * y))
        rhs = float(np.sum(x * grad_x))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_linearity_in_input(self, seed):
        rng = np.random.default_rng(seed)
        layer = Conv2d(2, 3, 3, bias=False, rng=seed)
        bind_rows(layer)
        a = rng.normal(size=(1, 2, 2, 5, 5))
        b = rng.normal(size=(1, 2, 2, 5, 5))
        assert np.allclose(
            layer.forward(a + 2.0 * b),
            layer.forward(a) + 2.0 * layer.forward(b),
        )
