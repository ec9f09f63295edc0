"""Forward-semantics tests for individual layers (values, not gradients).

Every layer computes over a leading worker axis: inputs are ``(R, B,
...)`` and a layer with parameters is first bound to ``(R, dim)``
parameter and gradient matrices (:func:`tests.nn.rows.bind_rows`).
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    ReLU,
)
from repro.nn import norm
from repro.nn.norm import EPS, MOMENTUM
from tests.nn.rows import bind_rows


class TestDense:
    def test_linear_map(self):
        layer = Dense(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.data = np.array([10.0, 20.0])
        bind_rows(layer)
        out = layer.forward(np.array([[[1.0, 1.0]]]))
        assert np.allclose(out, [[[13.0, 27.0]]])

    def test_input_shape_validation(self):
        layer = Dense(3, 2, rng=0)
        bind_rows(layer)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4, 5)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 3)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng=0).backward(np.zeros((1, 1, 2)))

    def test_rows_use_their_own_weights(self):
        """Row ``r`` meets row ``r``'s weights, and its gradient lands in
        row ``r`` of the gradient matrix, overwritten on every pass."""
        rng = np.random.default_rng(4)
        layer = Dense(3, 2, rng=0)
        params = rng.normal(size=(2, layer.num_params()))
        grads = np.full_like(params, 7.0)
        layer.bind(params, grads)
        x = rng.normal(size=(2, 5, 3))
        out = layer.forward(x)
        g = rng.normal(size=out.shape)
        grad_x = layer.backward(g)
        for r in range(2):
            weight = params[r, :6].reshape(2, 3)
            np.testing.assert_allclose(out[r], x[r] @ weight.T + params[r, 6:])
            np.testing.assert_allclose(grads[r, :6], (g[r].T @ x[r]).ravel())
            np.testing.assert_allclose(grads[r, 6:], g[r].sum(axis=0))
            np.testing.assert_allclose(grad_x[r], g[r] @ weight)


class TestConv2d:
    def test_identity_kernel(self):
        layer = Conv2d(1, 1, 1, rng=0)
        layer.weight.data = np.ones((1, 1, 1, 1))
        layer.bias.data = np.zeros(1)
        bind_rows(layer)
        x = np.random.default_rng(0).normal(size=(1, 2, 1, 4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=0)
        bind_rows(layer, rows=2)
        out = layer.forward(np.zeros((2, 2, 3, 8, 8)))
        assert out.shape == (2, 2, 8, 4, 4)

    def test_channel_validation(self):
        layer = Conv2d(3, 4, 3, rng=0)
        bind_rows(layer)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 1, 2, 8, 8)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, padding=-1, rng=0)
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3, rng=0)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert np.array_equal(out[0, 0, 0], [[5, 7], [13, 15]])


    def test_global_avgpool(self):
        x = np.arange(8.0).reshape(1, 1, 2, 2, 2)
        out = GlobalAvgPool2d().forward(x)
        assert np.allclose(out, [[[1.5, 5.5]]])

    def test_maxpool_gradient_routing(self):
        x = np.arange(16.0).reshape(1, 1, 1, 4, 4)
        pool = MaxPool2d(2)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 1, 2, 2)))
        # Only argmax positions receive gradient.
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.array_equal(grad[0, 0, 0], expected)

    def test_rows_fold_into_the_batch(self):
        """Pooling R rows of B images is pooling R*B images."""
        x = np.random.default_rng(3).normal(size=(3, 2, 2, 4, 6))
        rows = MaxPool2d(2).forward(x)
        folded = MaxPool2d(2).forward(x.reshape(1, 6, 2, 4, 6))
        np.testing.assert_array_equal(rows.reshape(folded.shape), folded)

    def test_float32_gradient_stays_float32(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 3, 4, 6))
        layer = MaxPool2d(2)
        out = layer.forward(x.astype(np.float32))
        assert out.dtype == np.float32
        assert layer.backward(np.ones_like(out)).dtype == np.float32

    def test_global_pool_requires_4d(self):
        """Each row must be a 4-D (B, C, H, W) batch of images."""
        with pytest.raises(ValueError):
            GlobalAvgPool2d().forward(np.zeros((2, 3, 4, 4)))


class TestActivationValues:
    def test_relu(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = np.arange(48.0).reshape(2, 2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 2, 12)
        back = layer.backward(out)
        assert np.array_equal(back, x)


def channels(x):
    """``(R, B, C)`` -> ``(R, B, C, 1, 1)``: one pixel per channel."""
    return x[..., None, None]


class TestBatchNorm:
    def test_normalizes_train_batch(self):
        layer = BatchNorm2d(3)
        bind_rows(layer)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(1, 64, 3))
        out = layer.forward(channels(x))[0]
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_move_toward_batch(self):
        layer = BatchNorm2d(2)
        bind_rows(layer)
        x = np.full((1, 8, 2), 4.0) + np.random.default_rng(0).normal(
            scale=0.1, size=(1, 8, 2)
        )
        layer.forward(channels(x))
        np.testing.assert_allclose(
            layer.running_mean, MOMENTUM * x[0].mean(axis=0), rtol=1e-12
        )
        assert np.all(layer.running_mean > 0.1)

    def test_rows_normalize_with_their_own_statistics(self):
        """Each row is normalized over its own batch, and the running
        buffers fold the rows' statistics in row order."""
        rng = np.random.default_rng(1)
        layer = BatchNorm2d(2)
        bind_rows(layer, rows=2)
        x = rng.normal(size=(2, 16, 2)) + np.array([[[5.0]], [[-5.0]]])
        out = layer.forward(channels(x))
        assert np.allclose(out.mean(axis=1), 0.0, atol=1e-9)
        mean = np.zeros(2)
        for row in range(2):
            mean = (1 - MOMENTUM) * mean + MOMENTUM * x[row].mean(axis=0)
        np.testing.assert_allclose(layer.running_mean, mean, rtol=1e-12)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm2d(2)
        bind_rows(layer)
        for _ in range(100):
            layer.forward(
                channels(
                    np.random.default_rng(_).normal(loc=2.0, size=(1, 32, 2))
                )
            )
        layer.eval()
        out = layer.forward(channels(np.full((1, 4, 2), 2.0)))
        # Input at the running mean maps near zero (then gamma/beta identity).
        assert np.allclose(out, 0.0, atol=0.2)

    def test_batchnorm2d_per_channel(self):
        layer = BatchNorm2d(3)
        bind_rows(layer)
        scales = np.array([1.0, 5.0, 10.0]).reshape(1, 1, 3, 1, 1)
        x = np.random.default_rng(0).normal(size=(1, 4, 3, 5, 5)) * scales
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=(0, 1, 3, 4)), 0.0, atol=1e-9)

    def test_eval_backward_is_elementwise_affine_adjoint(self):
        """Frozen stats make eval BN affine in x: grad = g * gamma/std."""
        rng = np.random.default_rng(5)
        layer = BatchNorm2d(2)
        bind_rows(layer)
        # Populate the running statistics.
        layer.forward(channels(rng.normal(size=(1, 16, 2))))
        layer.gamma.data[:] = rng.normal(size=2)
        layer.eval()
        bind_rows(layer)

        x = channels(rng.normal(size=(1, 4, 2)))
        grad_output = channels(rng.normal(size=(1, 4, 2)))
        layer.forward(x)
        grad_input = layer.backward(grad_output)

        inv_std = 1.0 / np.sqrt(layer.running_var + EPS)
        np.testing.assert_allclose(
            grad_input,
            grad_output * channels(layer.gamma.data * inv_std),
            rtol=1e-12,
        )

    def test_backward_before_forward_raises(self):
        layer = BatchNorm2d(2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 4, 2, 1, 1)))

    def test_buffers_roundtrip(self):
        layer = BatchNorm2d(2)
        bind_rows(layer)
        layer.forward(
            channels(np.random.default_rng(0).normal(size=(1, 16, 2)))
        )
        buffers = layer.get_buffers()
        other = BatchNorm2d(2)
        other.set_buffers(buffers)
        assert np.array_equal(other.running_mean, layer.running_mean)
        assert np.array_equal(other.running_var, layer.running_var)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            BatchNorm2d(2).forward(np.zeros((1, 2, 2)))

    def test_momentum_is_read_at_each_pass(self, monkeypatch):
        """At ``MOMENTUM = 1`` the running buffers are the last batch's
        mean and unbiased variance."""
        monkeypatch.setattr(norm, "MOMENTUM", 1.0)
        layer = BatchNorm2d(2)
        bind_rows(layer)
        x = np.random.default_rng(3).normal(size=(1, 8, 2))
        layer.forward(channels(x))
        np.testing.assert_allclose(
            layer.running_mean, x[0].mean(axis=0), rtol=1e-12
        )
        np.testing.assert_allclose(
            layer.running_var, x[0].var(axis=0, ddof=1), rtol=1e-12
        )

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    def test_eps_is_read_at_each_pass(self, monkeypatch, training):
        """``EPS`` floors the variance in both modes: a unit-variance
        batch, and the initial unit running variance, divide by
        ``sqrt(1 + EPS)``."""
        monkeypatch.setattr(norm, "EPS", 3.0)
        layer = BatchNorm2d(1)
        bind_rows(layer)
        if not training:
            layer.eval()
        x = channels(np.array([[[-1.0], [1.0]]]))
        np.testing.assert_allclose(
            layer.forward(x).ravel(), [-0.5, 0.5], rtol=1e-12
        )
