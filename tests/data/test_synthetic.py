"""Tests for synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import (
    DATASET_BUILDERS,
    make_blob_dataset,
    make_dataset,
    make_synthetic_cifar10,
    make_synthetic_har,
    make_synthetic_imagenet,
    make_synthetic_mnist,
)
from repro.data.synthetic import _smooth_field
from repro.nn.models import make_logistic_regression


def reference_blobs(
    num_samples, num_classes, *, channels=1, image_size=8, noise=0.5,
    jitter=0, scale_spread=0.0, rng,
):
    """The generator as a per-sample loop: the oracle for its placement.

    Each sample is its class prototype, optionally scaled, rolled by dy
    along rows and then by dx along columns, plus Gaussian noise; the
    draws per sample are the scale, dx, dy and the noise, in that order.
    """
    prototypes = np.stack(
        [_smooth_field(rng, channels, image_size) for _ in range(num_classes)]
    )
    for proto in prototypes:
        proto /= np.sqrt(np.mean(proto**2))
    labels = rng.integers(0, num_classes, size=num_samples)
    x = np.empty((num_samples, channels, image_size, image_size))
    for index, label in enumerate(labels):
        sample = prototypes[label]
        if scale_spread > 0:
            sample = sample * (1.0 + rng.uniform(-scale_spread, scale_spread))
        if jitter > 0:
            dx = int(rng.integers(-jitter, jitter + 1))
            dy = int(rng.integers(-jitter, jitter + 1))
            sample = np.roll(np.roll(sample, dy, axis=-2), dx, axis=-1)
        x[index] = sample + rng.normal(0.0, noise, size=sample.shape)
    return x, labels


def assert_same_bits(dataset, rng, reference, reference_rng):
    x, labels = reference
    assert dataset.x.shape == x.shape
    assert np.array_equal(dataset.x.view(np.int64), x.view(np.int64))
    assert np.array_equal(dataset.y, labels)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestBlobDataset:
    def test_shape_and_classes(self):
        ds = make_blob_dataset(50, 5, channels=2, image_size=6, rng=0)
        assert ds.x.shape == (50, 2, 6, 6)
        assert ds.num_classes == 5
        assert set(np.unique(ds.y)) <= set(range(5))

    def test_deterministic(self):
        a = make_blob_dataset(20, 3, rng=42)
        b = make_blob_dataset(20, 3, rng=42)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a = make_blob_dataset(20, 3, rng=1)
        b = make_blob_dataset(20, 3, rng=2)
        assert not np.array_equal(a.x, b.x)

    def test_noise_controls_separability(self):
        """Same-class samples are closer together at low noise."""
        def intra_class_spread(noise):
            ds = make_blob_dataset(100, 2, noise=noise, rng=5)
            spread = 0.0
            for c in range(2):
                xs = ds.x[ds.y == c].reshape(-1, ds.num_features)
                spread += xs.std(axis=0).mean()
            return spread

        assert intra_class_spread(0.1) < intra_class_spread(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blob_dataset(0, 3)
        with pytest.raises(ValueError):
            make_blob_dataset(10, 0)


class TestBitOracle:
    """The vectorized placement reproduces the per-sample loop bit for bit."""

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("jitter", [0, 1, 2, 11])
    @pytest.mark.parametrize("scale_spread", [0.0, 0.3])
    def test_matches_per_sample_loop(self, channels, jitter, scale_spread):
        kwargs = dict(
            channels=channels, noise=0.7, jitter=jitter,
            scale_spread=scale_spread,
        )
        for num_samples in (1, 2, 17, 500):
            for seed in (0, 5, 2024):
                rng = np.random.default_rng(seed)
                reference_rng = np.random.default_rng(seed)
                assert_same_bits(
                    make_blob_dataset(num_samples, 4, rng=rng, **kwargs),
                    rng,
                    reference_blobs(
                        num_samples, 4, rng=reference_rng, **kwargs
                    ),
                    reference_rng,
                )

    @pytest.mark.parametrize(
        "name, num_classes, kwargs",
        [
            ("mnist", 10, dict(image_size=10, noise=0.6, jitter=1)),
            (
                "cifar10", 10,
                dict(
                    channels=3, image_size=10, noise=1.1, jitter=2,
                    scale_spread=0.3,
                ),
            ),
            (
                "imagenet", 20,
                dict(
                    channels=3, image_size=12, noise=1.2, jitter=2,
                    scale_spread=0.4,
                ),
            ),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 9])
    def test_stand_ins_match_per_sample_loop(
        self, name, num_classes, kwargs, seed
    ):
        rng = np.random.default_rng(seed)
        reference_rng = np.random.default_rng(seed)
        assert_same_bits(
            make_dataset(name, 1500, rng=rng),
            rng,
            reference_blobs(1500, num_classes, rng=reference_rng, **kwargs),
            reference_rng,
        )


class TestNamedDatasets:
    @pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
    def test_builders_produce_data(self, name):
        ds = make_dataset(name, 40, rng=0)
        assert len(ds) == 40
        assert ds.num_classes >= 2

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dataset"):
            make_dataset("svhn", 10)

    def test_mnist_is_single_channel(self):
        ds = make_synthetic_mnist(10, rng=0)
        assert ds.x.shape[1] == 1
        assert ds.num_classes == 10

    def test_cifar_is_rgb(self):
        ds = make_synthetic_cifar10(10, rng=0)
        assert ds.x.shape[1] == 3

    def test_imagenet_has_more_classes(self):
        ds = make_synthetic_imagenet(10, rng=0)
        assert ds.num_classes == 20

    def test_har_is_flat_six_classes(self):
        ds = make_synthetic_har(30, rng=0)
        assert ds.x.ndim == 2
        assert ds.num_classes == 6


class TestLearnability:
    """The stand-ins must be learnable, or no experiment means anything."""

    def test_mnist_linear_separability(self):
        ds = make_synthetic_mnist(400, rng=3).flattened()
        model = make_logistic_regression(ds.num_features, 10, rng=1)
        params = model.get_flat_params()
        rng = np.random.default_rng(0)
        for _ in range(150):
            idx = rng.integers(0, len(ds), 32)
            grad, _ = model.gradient(ds.x[idx], ds.y[idx], params)
            params -= 0.05 * grad
        model.set_flat_params(params)
        assert model.evaluate(ds.x, ds.y)[0] > 0.8

    def test_har_learnable(self):
        ds = make_synthetic_har(400, rng=3)
        model = make_logistic_regression(ds.num_features, 6, rng=1)
        params = model.get_flat_params()
        rng = np.random.default_rng(0)
        for _ in range(150):
            idx = rng.integers(0, len(ds), 32)
            grad, _ = model.gradient(ds.x[idx], ds.y[idx], params)
            params -= 0.05 * grad
        model.set_flat_params(params)
        assert model.evaluate(ds.x, ds.y)[0] > 0.7
