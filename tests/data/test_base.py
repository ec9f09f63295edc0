"""Tests for the Dataset container and train/test splitting."""

import numpy as np
import pytest

from repro.data import Dataset, train_test_split


def toy(n=20, classes=4, features=6, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, features)), rng.integers(0, classes, n), classes
    )


class TestDataset:
    def test_length_and_shapes(self):
        ds = toy()
        assert len(ds) == 20
        assert ds.feature_shape == (6,)
        assert ds.num_features == 6

    def test_label_casting(self):
        ds = Dataset(np.zeros((2, 3)), np.array([0.0, 1.0]), 2)
        assert ds.y.dtype == np.int64

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="samples"):
            Dataset(np.zeros((3, 2)), np.zeros(4, dtype=int), 2)

    def test_out_of_range_labels_raise(self):
        with pytest.raises(ValueError, match="range"):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), 3)

    def test_subset_copies(self):
        ds = toy()
        sub = ds.subset(np.array([0, 1]))
        sub.x[0, 0] = 999.0
        assert ds.x[0, 0] != 999.0

    def test_flattened_images(self):
        ds = Dataset(
            np.zeros((5, 3, 4, 4)), np.zeros(5, dtype=int), 2
        )
        flat = ds.flattened()
        assert flat.feature_shape == (48,)
        assert len(flat) == 5


class TestTrainTestSplit:
    def test_sizes(self):
        train, test = train_test_split(toy(100), 0.25, rng=0)
        assert len(train) == 75
        assert len(test) == 25

    def test_disjoint_and_complete(self):
        ds = toy(40)
        ds.x[:, 0] = np.arange(40)  # unique marker per sample
        train, test = train_test_split(ds, 0.5, rng=1)
        markers = np.concatenate([train.x[:, 0], test.x[:, 0]])
        assert sorted(markers.tolist()) == list(range(40))

    def test_deterministic(self):
        a_train, _ = train_test_split(toy(30), 0.3, rng=7)
        b_train, _ = train_test_split(toy(30), 0.3, rng=7)
        assert np.array_equal(a_train.x, b_train.x)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(toy(), 0.0)
        with pytest.raises(ValueError):
            train_test_split(toy(), 1.0)

    def test_tiny_dataset_raises_when_empty_train(self):
        with pytest.raises(ValueError, match="no training samples"):
            train_test_split(toy(1), 0.9, rng=0)
