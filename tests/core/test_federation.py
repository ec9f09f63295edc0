"""Tests for the Federation runtime."""

import numpy as np
import pytest

from repro.core import Federation
from repro.data import Dataset
from repro.nn.models import make_logistic_regression


def small_federation(counts=((10, 30), (20,)), features=4, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    edges = []
    for edge_counts in counts:
        edge = []
        for n in edge_counts:
            edge.append(
                Dataset(
                    rng.normal(size=(n, features)),
                    rng.integers(0, classes, n),
                    classes,
                )
            )
        edges.append(edge)
    test = Dataset(
        rng.normal(size=(12, features)), rng.integers(0, classes, 12), classes
    )
    model = make_logistic_regression(features, classes, rng=1)
    return Federation(model, edges, test, batch_size=8, seed=seed)


class TestShape:
    def test_counts(self):
        fed = small_federation()
        assert fed.num_edges == 2
        assert fed.num_workers == 3
        assert fed.dim == fed.model.num_params

    def test_initial_params_is_copy(self):
        fed = small_federation()
        params = fed.initial_params()
        params[:] = 0
        assert fed.initial_params().any()

    def test_empty_partitions_raise(self):
        fed = small_federation()
        with pytest.raises(ValueError):
            Federation(fed.model, [], fed.test_set)
        with pytest.raises(ValueError):
            Federation(fed.model, [[]], fed.test_set)


class TestAveraging:
    def test_edge_average_weights(self):
        fed = small_federation(counts=((10, 30), (20,)))
        vectors = [
            np.full(fed.dim, 1.0),
            np.full(fed.dim, 5.0),
            np.full(fed.dim, 9.0),
        ]
        edge0 = fed.edge_average(0, vectors)
        assert edge0[0] == pytest.approx(0.25 * 1.0 + 0.75 * 5.0)
        edge1 = fed.edge_average(1, vectors)
        assert edge1[0] == pytest.approx(9.0)

    def test_cloud_average(self):
        fed = small_federation(counts=((10, 30), (20,)))
        # D0=40, D1=20 -> weights 2/3, 1/3.
        vectors = [np.full(fed.dim, 3.0), np.full(fed.dim, 9.0)]
        cloud = fed.cloud_average_edges(vectors)
        assert cloud[0] == pytest.approx(3.0 * 2 / 3 + 9.0 / 3)

    def test_global_average_consistency(self):
        """Global average == cloud average of edge averages."""
        fed = small_federation(counts=((10, 30), (20, 5)))
        rng = np.random.default_rng(2)
        vectors = [rng.normal(size=fed.dim) for _ in range(4)]
        direct = fed.global_average_workers(vectors)
        nested = fed.cloud_average_edges(
            [fed.edge_average(e, vectors) for e in range(2)]
        )
        assert np.allclose(direct, nested)


class TestGradientOracle:
    def test_gradient_shape(self):
        fed = small_federation()
        grad, loss = fed.gradient(0, fed.initial_params())
        assert grad.shape == (fed.dim,)
        assert np.isfinite(loss)

    def test_sampler_streams_independent(self):
        """Each worker's batch sequence differs but is reproducible."""
        fed_a = small_federation(seed=3)
        fed_b = small_federation(seed=3)
        params = fed_a.initial_params()
        grad_a0, _ = fed_a.gradient(0, params)
        grad_b0, _ = fed_b.gradient(0, params)
        assert np.array_equal(grad_a0, grad_b0)


class TestEvaluate:
    def test_accuracy_loss_types(self):
        fed = small_federation()
        accuracy, loss = fed.evaluate(fed.initial_params())
        assert 0.0 <= accuracy <= 1.0
        assert loss > 0

    def test_history_config_enriched(self):
        fed = small_federation()
        history = fed.new_history("X", {"eta": 0.1})
        assert history.config["num_edges"] == 2
        assert history.config["num_workers"] == 3
        assert history.config["eta"] == 0.1
