"""Numerical-robustness tests: extreme inputs must not produce NaNs."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Dense,
    ReLU,
    Sequential,
    SoftmaxCrossEntropyLoss,
    SupervisedModel,
)
from tests.nn.softmax import log_softmax, softmax
from tests.nn.rows import bind_rows


class TestExtremeActivations:

    def test_softmax_huge_logits(self):
        logits = np.array([[1e300, -1e300, 0.0]])
        assert np.isfinite(softmax(logits)).all()
        assert np.isfinite(log_softmax(logits)).all()


class TestExtremeTrainingInputs:
    def model(self):
        net = Sequential(Dense(4, 8, rng=0), ReLU(), Dense(8, 3, rng=1))
        return SupervisedModel(net, SoftmaxCrossEntropyLoss())

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
    def test_gradient_finite_across_input_scales(self, scale):
        model = self.model()
        x = np.random.default_rng(0).normal(size=(5, 4)) * scale
        y = np.random.default_rng(1).integers(0, 3, 5)
        grad, loss = model.gradient(x, y, model.get_flat_params())
        assert np.isfinite(grad).all()
        assert np.isfinite(loss)

    def test_zero_input_batch(self):
        model = self.model()
        grad, loss = model.gradient(
            np.zeros((4, 4)), np.zeros(4, dtype=int),
            model.get_flat_params(),
        )
        assert np.isfinite(grad).all()
        assert loss == pytest.approx(np.log(3), rel=0.5)

    def test_single_sample_batch(self):
        model = self.model()
        grad, loss = model.gradient(
            np.ones((1, 4)), np.zeros(1, dtype=int),
            model.get_flat_params(),
        )
        assert grad.shape == (model.num_params,)

    def test_batchnorm_single_feature_variance_floor(self):
        """Constant batch: variance 0, eps must keep the output finite."""
        layer = BatchNorm2d(3)
        bind_rows(layer)
        out = layer.forward(np.full((1, 8, 3, 1, 1), 7.0))
        assert np.isfinite(out).all()
        assert np.allclose(out, 0.0, atol=1e-6)

    def test_duplicate_samples(self):
        model = self.model()
        x = np.tile(np.ones((1, 4)), (6, 1))
        y = np.zeros(6, dtype=int)
        grad_dup, _ = model.gradient(x, y, model.get_flat_params())
        grad_one, _ = model.gradient(
            x[:1], y[:1], model.get_flat_params()
        )
        # Mean loss over identical samples == single-sample loss.
        assert np.allclose(grad_dup, grad_one)
