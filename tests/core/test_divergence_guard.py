"""Tests for early stopping on divergence."""

import numpy as np
import pytest

from repro.algorithms import AsyncFedAvg, AsyncHierAdMo, FedAvg
from repro.core import Federation, HierAdMo
from repro.data import (
    Dataset,
    make_synthetic_mnist,
    partition_xclass,
    train_test_split,
)
from repro.nn.models import make_cnn, make_linear_regression
from tests.integration.test_golden_trajectories import PATHS, one_row_at_a_time


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


def cnn_federation():
    """Conv/ReLU/max-pool model: 2 edges x 2 workers on 8x8 images."""
    corpus = make_synthetic_mnist(240, image_size=8, rng=21)
    train, test = train_test_split(corpus, 0.25, rng=22)
    parts = partition_xclass(train, 4, 3, rng=23)
    model = make_cnn(1, 8, 10, width=3, hidden=16, rng=24)
    return Federation(
        model, [parts[0:2], parts[2:4]], test, batch_size=8, seed=25
    )


# name -> (class, kwargs, the iteration whose step loss is first
# non-finite at eta=1e6).  Each lockstep algorithm runs next to its
# event-clock twin, which must stop at the same step.
HUGE_LR_CASES = {
    "FedAvg": (FedAvg, {"tau": 5}, 27),
    "AsyncFedAvg": (AsyncFedAvg, {"tau": 5}, 27),
    "HierAdMo": (HierAdMo, {"tau": 5, "pi": 2}, 26),
    "AsyncHierAdMo": (AsyncHierAdMo, {"tau": 5, "pi": 2}, 26),
}


def huge_lr_run(name):
    cls, kwargs, _ = HUGE_LR_CASES[name]
    algo = cls(mse_federation(), eta=1e6, **kwargs)
    return algo.run(50, eval_every=10)


class TestDivergenceGuard:
    @pytest.mark.parametrize("name", sorted(HUGE_LR_CASES))
    def test_huge_lr_diverges_and_stops(self, name):
        history = huge_lr_run(name)
        diverged_at = HUGE_LR_CASES[name][2]
        assert history.diverged
        assert history.diverged_at == diverged_at
        assert history.iterations == [0, 10, 20, diverged_at]
        assert not np.isfinite(history.train_loss[-1])
        # Only the event clock has simulated time to put on the axis.
        on_event_clock = name.startswith("Async")
        assert len(history.eval_times) == (
            len(history.iterations) if on_event_clock else 0
        )

    @pytest.mark.parametrize("path", PATHS)
    def test_huge_lr_cnn_diverges_and_stops(self, path):
        """NaN and inf pass through ReLU and max pooling to the loss,
        on the fleet program and one row at a time."""
        federation = cnn_federation()
        if path == "loop":
            one_row_at_a_time(federation)
        history = FedAvg(federation, eta=1e6, tau=3).run(30, eval_every=10)
        assert history.diverged
        assert history.diverged_at == 5
        assert history.iterations == [0, 5]
        assert not np.isfinite(history.train_loss[-1])

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
