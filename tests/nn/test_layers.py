"""Forward-semantics tests for individual layers (values, not gradients)."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    MaxPool2d,
    ReLU,
    Sigmoid,
    Tanh,
)


class TestDense:
    def test_linear_map(self):
        layer = Dense(2, 2, rng=0)
        layer.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.data = np.array([10.0, 20.0])
        out = layer.forward(np.array([[1.0, 1.0]]))
        assert np.allclose(out, [[13.0, 27.0]])

    def test_input_shape_validation(self):
        layer = Dense(3, 2, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            layer.forward(np.zeros(3))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            Dense(2, 2, rng=0).backward(np.zeros((1, 2)))

    def test_grad_accumulates(self):
        layer = Dense(2, 2, rng=0)
        x = np.ones((1, 2))
        for _ in range(2):
            layer.forward(x)
            layer.backward(np.ones((1, 2)))
        assert np.allclose(layer.weight.grad, 2.0)


class TestConv2d:
    def test_identity_kernel(self):
        layer = Conv2d(1, 1, 1, rng=0)
        layer.weight.data = np.ones((1, 1, 1, 1))
        layer.bias.data = np.zeros(1)
        x = np.random.default_rng(0).normal(size=(2, 1, 4, 4))
        assert np.allclose(layer.forward(x), x)

    def test_output_shape(self):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=0)
        out = layer.forward(np.zeros((2, 3, 8, 8)))
        assert out.shape == (2, 8, 4, 4)

    def test_channel_validation(self):
        layer = Conv2d(3, 4, 3, rng=0)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 2, 8, 8)))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, 3, padding=-1, rng=0)
        with pytest.raises(ValueError):
            Conv2d(0, 1, 3, rng=0)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = AvgPool2d(2).forward(x)
        assert np.array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_global_avgpool(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = GlobalAvgPool2d().forward(x)
        assert np.allclose(out, [[1.5, 5.5]])

    def test_maxpool_gradient_routing(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        pool = MaxPool2d(2)
        pool.forward(x)
        grad = pool.backward(np.ones((1, 1, 2, 2)))
        # Only argmax positions receive gradient.
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        assert np.array_equal(grad[0, 0], expected)

    @pytest.mark.parametrize("pool", [MaxPool2d, AvgPool2d])
    def test_float32_gradient_stays_float32(self, pool):
        x = np.random.default_rng(0).normal(size=(2, 3, 4, 6))
        layer = pool(2)
        out = layer.forward(x.astype(np.float32))
        assert out.dtype == np.float32
        assert layer.backward(np.ones_like(out)).dtype == np.float32

    def test_global_pool_requires_4d(self):
        with pytest.raises(ValueError):
            GlobalAvgPool2d().forward(np.zeros((2, 3)))


class TestActivationValues:
    def test_relu(self):
        out = ReLU().forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_leaky_relu(self):
        out = LeakyReLU(0.1).forward(np.array([-10.0, 10.0]))
        assert np.allclose(out, [-1.0, 10.0])

    def test_leaky_relu_validation(self):
        with pytest.raises(ValueError):
            LeakyReLU(-0.1)

    def test_sigmoid_range_and_symmetry(self):
        layer = Sigmoid()
        out = layer.forward(np.array([-500.0, 0.0, 500.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == pytest.approx(1.0)

    def test_tanh(self):
        out = Tanh().forward(np.array([0.0, 100.0]))
        assert np.allclose(out, [0.0, 1.0])


class TestDropout:
    def test_eval_mode_identity(self):
        layer = Dropout(0.5, rng=0)
        layer.eval()
        x = np.random.default_rng(0).normal(size=(10, 10))
        assert np.array_equal(layer.forward(x), x)

    def test_p_zero_identity(self):
        layer = Dropout(0.0, rng=0)
        x = np.ones((5, 5))
        assert np.array_equal(layer.forward(x), x)

    def test_expected_scale_preserved(self):
        layer = Dropout(0.3, rng=1)
        x = np.ones((200, 200))
        out = layer.forward(x)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_mask_applied_to_backward(self):
        layer = Dropout(0.5, rng=2)
        x = np.ones((4, 4))
        out = layer.forward(x)
        grad = layer.backward(np.ones((4, 4)))
        # Zeros in forward output must be zeros in the gradient.
        assert np.array_equal(out == 0, grad == 0)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestFlatten:
    def test_roundtrip(self):
        layer = Flatten()
        x = np.arange(24.0).reshape(2, 3, 2, 2)
        out = layer.forward(x)
        assert out.shape == (2, 12)
        back = layer.backward(out)
        assert np.array_equal(back, x)


class TestBatchNorm:
    def test_normalizes_train_batch(self):
        layer = BatchNorm1d(3)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 3))
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_move_toward_batch(self):
        layer = BatchNorm1d(2, momentum=0.5)
        x = np.full((8, 2), 4.0) + np.random.default_rng(0).normal(
            scale=0.1, size=(8, 2)
        )
        layer.forward(x)
        assert np.all(layer.running_mean > 1.0)

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(2)
        for _ in range(100):
            layer.forward(
                np.random.default_rng(_).normal(loc=2.0, size=(32, 2))
            )
        layer.eval()
        out = layer.forward(np.full((4, 2), 2.0))
        # Input at the running mean maps near zero (then gamma/beta identity).
        assert np.allclose(out, 0.0, atol=0.2)

    def test_batchnorm2d_per_channel(self):
        layer = BatchNorm2d(3)
        scales = np.array([1.0, 5.0, 10.0]).reshape(1, 3, 1, 1)
        x = np.random.default_rng(0).normal(size=(4, 3, 5, 5)) * scales
        out = layer.forward(x)
        assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)

    def test_eval_backward_is_elementwise_affine_adjoint(self):
        """Frozen stats make eval BN affine in x: grad = g * gamma/std."""
        rng = np.random.default_rng(5)
        layer = BatchNorm1d(2)
        layer.forward(rng.normal(size=(16, 2)))  # populate running stats
        layer.gamma.data[:] = rng.normal(size=2)
        layer.eval()
        layer.zero_grad()

        x = rng.normal(size=(4, 2))
        grad_output = rng.normal(size=(4, 2))
        layer.forward(x)
        grad_input = layer.backward(grad_output)

        inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
        np.testing.assert_allclose(
            grad_input, grad_output * layer.gamma.data * inv_std, rtol=1e-12
        )

    def test_backward_before_forward_raises(self):
        layer = BatchNorm1d(2)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((4, 2)))

    def test_buffers_roundtrip(self):
        layer = BatchNorm1d(2)
        layer.forward(np.random.default_rng(0).normal(size=(16, 2)))
        buffers = layer.get_buffers()
        other = BatchNorm1d(2)
        other.set_buffers(buffers)
        assert np.array_equal(other.running_mean, layer.running_mean)
        assert np.array_equal(other.running_var, layer.running_var)

    def test_wrong_ndim_raises(self):
        with pytest.raises(ValueError):
            BatchNorm1d(2).forward(np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            BatchNorm2d(2).forward(np.zeros((2, 2)))
