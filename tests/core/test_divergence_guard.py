"""Tests for early stopping on divergence."""

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.core import Federation
from repro.data import (
    Dataset,
    make_synthetic_mnist,
    partition_xclass,
    train_test_split,
)
from repro.nn.models import make_cnn, make_linear_regression


def mse_federation(seed=0):
    """MSE linear regression: a huge LR overflows to inf within steps."""
    rng = np.random.default_rng(seed)
    classes, features = 3, 5

    def dataset(ds_seed):
        ds_rng = np.random.default_rng(ds_seed)
        return Dataset(
            ds_rng.normal(size=(20, features)),
            ds_rng.integers(0, classes, 20),
            classes,
        )

    edges = [[dataset(1), dataset(2)], [dataset(3), dataset(4)]]
    model = make_linear_regression(features, classes, rng=5)
    return Federation(model, edges, edges[0][0], batch_size=8, seed=seed)


def cnn_federation(backend):
    """Conv/ReLU/max-pool model: 2 edges x 2 workers on 8x8 images."""
    corpus = make_synthetic_mnist(240, image_size=8, rng=21)
    train, test = train_test_split(corpus, 0.25, rng=22)
    parts = partition_xclass(train, 4, 3, rng=23)
    model = make_cnn(1, 8, 10, width=3, hidden=16, rng=24)
    return Federation(
        model, [parts[0:2], parts[2:4]], test, batch_size=8, seed=25,
        backend=backend,
    )


class TestDivergenceGuard:
    def test_huge_lr_diverges_and_stops(self):
        algo = FedAvg(mse_federation(), eta=1e6, tau=5)
        history = algo.run(50, eval_every=10)
        assert history.diverged
        assert history.diverged_at is not None
        assert history.iterations[-1] == history.diverged_at
        assert history.diverged_at < 50
        assert not np.isfinite(history.train_loss[-1])

    @pytest.mark.parametrize("backend", ["batched", "loop"])
    def test_huge_lr_cnn_diverges_and_stops(self, backend):
        """NaN and inf pass through ReLU and max pooling to the loss."""
        federation = cnn_federation(backend)
        assert federation.gradient_backend == backend
        history = FedAvg(federation, eta=1e6, tau=3).run(30, eval_every=10)
        assert history.diverged
        assert history.diverged_at == 5
        assert history.iterations == [0, 5]
        assert not np.isfinite(history.train_loss[-1])

    def test_guard_can_be_disabled(self):
        algo = FedAvg(mse_federation(), eta=1e6, tau=5)
        history = algo.run(10, eval_every=5, stop_on_divergence=False)
        assert not history.diverged
        assert history.iterations[-1] == 10

    def test_healthy_run_not_flagged(self, tiny_federation):
        history = FedAvg(tiny_federation, eta=0.05, tau=5).run(
            20, eval_every=10
        )
        assert not history.diverged
        assert history.diverged_at is None

    def test_series_still_roundtrip_after_divergence(self):
        from repro.metrics import history_from_dict, history_to_dict

        algo = FedAvg(mse_federation(), eta=1e6, tau=5)
        history = algo.run(30, eval_every=10)
        assert history.diverged
        restored = history_from_dict(history_to_dict(history))
        assert restored.iterations == history.iterations
