"""Tests for loss functions.

Losses take ``(R, B, C)`` predictions and ``(R, B)`` targets and return
one mean loss per row; these cases use a single row.
"""

import numpy as np
import pytest

from repro.nn.functional import one_hot
from tests.nn.softmax import log_softmax, softmax
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss


class TestMSELoss:
    def test_zero_at_exact_match(self):
        loss = MSELoss()
        predictions = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        assert loss.forward(predictions, np.array([[0, 1]]))[0] == 0.0

    def test_value_matches_manual(self):
        loss = MSELoss()
        predictions = np.array([[[0.5, 0.5]]])
        value = loss.forward(predictions, np.array([[0]]))[0]
        assert value == pytest.approx(((0.5 - 1) ** 2 + 0.5**2) / 2)

    def test_accepts_onehot_targets(self):
        loss = MSELoss()
        predictions = np.array([[[0.2, 0.8]]])
        targets = np.array([[[0.0, 1.0]]])
        assert loss.forward(predictions, targets)[0] == pytest.approx(
            (0.04 + 0.04) / 2
        )

    def test_gradient_formula(self):
        loss = MSELoss()
        predictions = np.array([[[0.5, -0.5]]])
        loss.forward(predictions, np.array([[0]]))
        grad = loss.backward()
        expected = 2 * (predictions - np.array([[[1.0, 0.0]]])) / 2
        assert np.allclose(grad, expected)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            MSELoss().backward()


class TestCrossEntropy:
    def test_uniform_logits_log_k(self):
        loss = SoftmaxCrossEntropyLoss()
        value = loss.forward(np.zeros((1, 4, 10)), np.zeros((1, 4), dtype=int))
        assert value[0] == pytest.approx(np.log(10))

    def test_confident_correct_near_zero(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[[100.0, 0.0, 0.0]]])
        assert loss.forward(logits, np.array([[0]]))[0] == pytest.approx(0.0, abs=1e-6)

    def test_gradient_is_probs_minus_onehot(self):
        loss = SoftmaxCrossEntropyLoss()
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(2, 5, 4))
        y = rng.integers(0, 4, (2, 5))
        loss.forward(logits, y)
        grad = loss.backward()
        for row in range(2):
            expected = (softmax(logits[row]) - one_hot(y[row], 4)) / 5
            assert np.allclose(grad[row], expected)

    def test_gradient_rows_sum_to_zero(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.random.default_rng(1).normal(size=(1, 3, 6))
        loss.forward(logits, np.array([[0, 1, 2]]))
        assert np.allclose(loss.backward().sum(axis=2), 0.0, atol=1e-12)

    def test_shape_validation(self):
        loss = SoftmaxCrossEntropyLoss()
        with pytest.raises(ValueError):
            loss.forward(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(ValueError):
            loss.forward(np.zeros((1, 3, 2)), np.zeros((1, 4), dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            SoftmaxCrossEntropyLoss().backward()

    def test_extreme_logits_finite(self):
        loss = SoftmaxCrossEntropyLoss()
        logits = np.array([[[1000.0, -1000.0]]])
        value = loss.forward(logits, np.array([[1]]))
        assert np.isfinite(value)
        assert np.isfinite(loss.backward()).all()

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1e3, 1e300])
    def test_matches_two_pass_oracle_bit_for_bit(self, scale):
        """One max/exp/sum gives the losses and gradients of separate
        softmax and log-softmax passes exactly, huge logits included."""
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(3, 6, 5)) * scale
        logits[1, 2] = [1e308, -1e308, 0.0, 1e308, 5.0]
        y = rng.integers(0, 5, (3, 6))
        loss = SoftmaxCrossEntropyLoss()
        with np.errstate(over="ignore", invalid="ignore"):
            value = loss.forward(logits, y)
            grad = loss.backward()
            picks = (np.arange(3)[:, None], np.arange(6), y)
            want = -log_softmax(logits)[picks].mean(axis=1)
            want_grad = softmax(logits)
        want_grad[picks] -= 1.0
        want_grad /= 6
        np.testing.assert_array_equal(value, want)
        np.testing.assert_array_equal(grad, want_grad)
