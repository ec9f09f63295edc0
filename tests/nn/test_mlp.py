"""Tests for the MLP builder."""

import numpy as np

from repro.nn.models.mlp import make_mlp

RNG = np.random.default_rng(0)


class TestMlp:
    def test_output_shape(self):
        model = make_mlp(12, (16, 8), 4, rng=0)
        out = model.predict(RNG.normal(size=(5, 12)))
        assert out.shape == (5, 4)

    def test_no_hidden_is_logistic(self):
        model = make_mlp(6, (), 3, rng=0)
        assert model.num_params == 6 * 3 + 3


    def test_learns_xor_like_problem(self):
        """A hidden layer is genuinely used: solves a non-linear task."""
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, size=(400, 2))
        y = ((x[:, 0] * x[:, 1]) > 0).astype(int)
        model = make_mlp(2, (16,), 2, rng=2)
        params = model.get_flat_params()
        for _ in range(600):
            idx = rng.integers(0, 400, 32)
            grad, _ = model.gradient(x[idx], y[idx], params)
            params -= 0.3 * grad
        model.set_flat_params(params)
        assert model.evaluate(x, y)[0] > 0.9
