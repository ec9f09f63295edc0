"""Tests for the experiment builders."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_REGISTRY
from repro.experiments import (
    ExperimentConfig,
    build_algorithm,
    build_datasets,
    build_federation,
    build_model,
)

FAST = dict(num_samples=300, total_iterations=10)


class TestBuildDatasets:
    def test_partition_shape(self):
        config = ExperimentConfig(num_edges=3, workers_per_edge=2, **FAST)
        edges, test = build_datasets(config)
        assert len(edges) == 3
        assert all(len(edge) == 2 for edge in edges)
        assert len(test) > 0

    def test_convex_models_get_flat_features(self):
        config = ExperimentConfig(model="logistic", **FAST)
        edges, test = build_datasets(config)
        assert edges[0][0].x.ndim == 2

    def test_conv_models_get_images(self):
        config = ExperimentConfig(model="cnn", **FAST)
        edges, test = build_datasets(config)
        assert edges[0][0].x.ndim == 4

    def test_har_reshaped_for_cnn(self):
        config = ExperimentConfig(dataset="har", model="cnn", **FAST)
        edges, test = build_datasets(config)
        assert edges[0][0].x.shape[1:] == (1, 8, 8)

    def test_xclass_respected(self):
        config = ExperimentConfig(
            scheme="xclass", classes_per_worker=3, **FAST
        )
        edges, _ = build_datasets(config)
        for edge in edges:
            for worker in edge:
                assert np.unique(worker.y).size <= 3

    def test_deterministic(self):
        config = ExperimentConfig(**FAST)
        a, _ = build_datasets(config)
        b, _ = build_datasets(config)
        assert np.array_equal(a[0][0].x, b[0][0].x)


class TestBuildModel:
    @pytest.mark.parametrize(
        "model", ["linear", "logistic", "cnn", "vgg16", "resnet18"]
    )
    def test_all_models_build(self, model):
        dataset = "mnist" if model != "resnet18" else "imagenet"
        scheme = "iid" if dataset == "imagenet" else "xclass"
        config = ExperimentConfig(
            model=model, dataset=dataset, scheme=scheme, **FAST
        )
        edges, test = build_datasets(config)
        built = build_model(config, test)
        predictions = built.predict(test.x[:3])
        assert predictions.shape == (3, test.num_classes)

    def test_image_model_on_flat_data_raises(self):
        config = ExperimentConfig(model="cnn", **FAST)
        _, test = build_datasets(
            config.with_overrides(model="logistic")
        )
        with pytest.raises(ValueError, match="image data"):
            build_model(config, test)

    def test_model_kwargs_forwarded(self):
        config = ExperimentConfig(
            model="cnn", model_kwargs={"width": 4, "hidden": 8}, **FAST
        )
        edges, test = build_datasets(config)
        small = build_model(config, test)
        big = build_model(
            config.with_overrides(model_kwargs={"width": 16}), test
        )
        assert big.num_params > small.num_params


class TestBuildAlgorithm:
    @pytest.mark.parametrize("name", sorted(ALGORITHM_REGISTRY))
    def test_every_registry_name_constructs_and_steps(self, name):
        config = ExperimentConfig(
            model="logistic", tau=2, pi=2, **FAST
        )
        federation = build_federation(config)
        algorithm = build_algorithm(name, federation, config)
        history = algorithm.run(4, eval_every=4)
        assert history.algorithm == name
        assert len(history.test_accuracy) >= 2

    def test_two_tier_gets_matched_tau(self):
        config = ExperimentConfig(model="logistic", tau=5, pi=3, **FAST)
        federation = build_federation(config)
        fedavg = build_algorithm("FedAvg", federation, config)
        assert fedavg.tau == 15
        hier = build_algorithm("HierAdMo", federation, config)
        assert hier.tau == 5
        assert hier.pi == 3

    def test_unknown_name_raises(self):
        config = ExperimentConfig(**FAST)
        federation = build_federation(config)
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_algorithm("NoSuchAlgorithm", federation, config)

    def test_extension_registry_names_build(self):
        config = ExperimentConfig(**FAST)
        federation = build_federation(config)
        for name in ("FedProx", "SampledFedAvg", "QuantizedHierFAVG"):
            algorithm = build_algorithm(name, federation, config)
            assert type(algorithm).__name__ == name
