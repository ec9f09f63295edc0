"""Tests for the SupervisedModel gradient oracle."""

import numpy as np
import pytest

from repro.nn import Dense, SoftmaxCrossEntropyLoss, SupervisedModel

RNG = np.random.default_rng(3)


@pytest.fixture()
def model():
    return SupervisedModel(Dense(6, 3, rng=0), SoftmaxCrossEntropyLoss())


class TestGradient:
    def test_gradient_at_explicit_params(self, model):
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        params = np.zeros(model.num_params)
        grad, loss = model.gradient(x, y, params)
        assert loss == pytest.approx(np.log(3))
        assert grad.shape == params.shape

    def test_gradient_deterministic(self, model):
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        params = model.get_flat_params()
        a, _ = model.gradient(x, y, params)
        b, _ = model.gradient(x, y, params)
        assert np.array_equal(a, b)

    def test_gradient_zeroed_between_calls(self, model):
        """Gradients must not accumulate across calls."""
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        params = model.get_flat_params()
        first, _ = model.gradient(x, y, params)
        second, _ = model.gradient(x, y, params)
        assert np.allclose(first, second)  # not doubled


class TestGradientOut:
    def test_out_receives_gradient_in_place(self, model):
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        params = model.get_flat_params()
        plain, _ = model.gradient(x, y, params)
        out = np.empty(model.num_params)
        returned, _ = model.gradient(x, y, params, out=out)
        assert returned is out
        assert np.array_equal(out, plain)

    def test_returned_gradient_is_independent(self, model):
        """Without out=, successive calls must not alias each other."""
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        params = model.get_flat_params()
        a, _ = model.gradient(x, y, params)
        b, _ = model.gradient(x, y, np.zeros_like(params))
        assert a is not b
        assert not np.array_equal(a, b)


class TestDivergenceShortCircuit:
    def test_nonfinite_params_return_nan_without_warnings(self, model):
        """NaN/inf parameters short-circuit: NaN grad + NaN loss, silently.

        The suite runs with error::RuntimeWarning, so any overflow leak
        from a forward pass on garbage parameters would fail this test.
        """
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        bad = np.full(model.num_params, np.inf)
        grad, loss = model.gradient(x, y, bad)
        assert np.isnan(loss)
        assert np.isnan(grad).all()

    def test_overflowing_forward_short_circuits_cleanly(self, model):
        """Finite params that overflow in forward: NaN grad, non-finite
        loss, and no RuntimeWarning escapes (errstate contains it)."""
        x = np.full((4, 6), 1e6)
        y = np.zeros(4, dtype=int)
        huge = np.full(model.num_params, 1e308)
        huge[1::2] *= -1.0  # mixed signs -> inf - inf -> NaN logits
        grad, loss = model.gradient(x, y, huge)
        assert not np.isfinite(loss)
        assert np.isnan(grad).all()

    def test_nan_short_circuit_fills_out(self, model):
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        out = np.zeros(model.num_params)
        _, loss = model.gradient(
            x, y, np.full(model.num_params, np.nan), out=out
        )
        assert np.isnan(loss)
        assert np.isnan(out).all()


class TestEvaluation:
    def test_accuracy_perfect_separable(self, model):
        x = RNG.normal(size=(6, 6))
        logits = model.predict(x)
        y = logits.argmax(axis=1)
        assert model.evaluate(x, y)[0] == 1.0

    def test_accuracy_requires_2d_output(self):
        class Scalar(Dense):
            pass

        model = SupervisedModel(Dense(3, 1, rng=0))
        # 2-D output with one column still works (degenerate but valid).
        x = RNG.normal(size=(4, 3))
        assert model.evaluate(x, np.zeros(4, dtype=int))[0] == 1.0

    def test_batched_predict_matches_single(self, model):
        x = RNG.normal(size=(10, 6))
        full = model.predict(x, batch_size=256)
        chunked = model.predict(x, batch_size=3)
        assert np.allclose(full, chunked)

    def test_predict_restores_train_mode(self, model):
        model.module.train()
        model.predict(RNG.normal(size=(2, 6)))
        assert model.module.training

    def test_loss_positive(self, model):
        x = RNG.normal(size=(4, 6))
        y = RNG.integers(0, 3, 4)
        assert model.loss(x, y) > 0
