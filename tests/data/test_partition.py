"""Tests for federated data partitioners.

The central invariant — every sample lands on exactly one worker — is
property-tested across schemes and random shapes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    Dataset,
    partition_dirichlet,
    partition_iid,
    partition_xclass,
)


def tagged_dataset(n, classes, seed=0):
    """Dataset whose feature column 0 is a unique per-sample tag."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 4))
    x[:, 0] = np.arange(n)
    y = rng.integers(0, classes, n)
    # Ensure every class appears at least once.
    y[:classes] = np.arange(classes)
    return Dataset(x, y, classes)


def assert_exact_cover(dataset, parts):
    tags = np.concatenate([p.x[:, 0] for p in parts])
    assert sorted(tags.tolist()) == list(range(len(dataset)))


class TestIid:
    def test_exact_cover(self):
        ds = tagged_dataset(50, 5)
        assert_exact_cover(ds, partition_iid(ds, 4, rng=0))

    def test_balanced_sizes(self):
        parts = partition_iid(tagged_dataset(100, 5), 4, rng=0)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_label_distributions_similar(self):
        ds = tagged_dataset(1000, 4, seed=1)
        parts = partition_iid(ds, 4, rng=0)
        global_frac = np.bincount(ds.y, minlength=ds.num_classes) / len(ds)
        for part in parts:
            frac = np.bincount(part.y, minlength=part.num_classes) / len(part)
            assert np.abs(frac - global_frac).max() < 0.1

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            partition_iid(tagged_dataset(3, 2), 4, rng=0)

    @given(
        st.integers(min_value=8, max_value=60),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_cover_property(self, n, workers):
        ds = tagged_dataset(max(n, workers), 3, seed=n)
        assert_exact_cover(ds, partition_iid(ds, workers, rng=1))


class TestXClass:
    def test_exact_cover(self):
        ds = tagged_dataset(80, 10)
        assert_exact_cover(ds, partition_xclass(ds, 4, 3, rng=0))

    def test_class_limit_respected(self):
        ds = tagged_dataset(300, 10, seed=2)
        parts = partition_xclass(ds, 6, 3, rng=0)
        for part in parts:
            assert np.unique(part.y).size <= 3

    def test_every_worker_nonempty(self):
        parts = partition_xclass(tagged_dataset(200, 10), 8, 2, rng=1)
        assert all(len(p) > 0 for p in parts)

    def test_x_equals_num_classes_is_iid_like(self):
        ds = tagged_dataset(100, 5)
        parts = partition_xclass(ds, 4, 5, rng=0)
        assert_exact_cover(ds, parts)
        for part in parts:
            assert np.unique(part.y).size == 5

    def test_too_many_classes_raises(self):
        with pytest.raises(ValueError, match="exceeds"):
            partition_xclass(tagged_dataset(20, 3), 2, 5, rng=0)

    def test_insufficient_coverage_raises(self):
        # 2 workers x 1 class cannot cover 6 classes without dropping data.
        with pytest.raises(ValueError, match="cover"):
            partition_xclass(tagged_dataset(60, 6), 2, 1, rng=0)

    @given(
        st.integers(min_value=2, max_value=8),   # workers
        st.integers(min_value=1, max_value=5),   # classes per worker
    )
    @settings(max_examples=25, deadline=None)
    def test_cover_property(self, workers, x_classes):
        classes = 6
        x_classes = min(x_classes, classes)
        if workers * x_classes < classes:
            x_classes = -(-classes // workers)  # ceil to a feasible value
        ds = tagged_dataset(40 * workers, classes, seed=workers)
        parts = partition_xclass(ds, workers, x_classes, rng=2)
        assert_exact_cover(ds, parts)
        for part in parts:
            assert np.unique(part.y).size <= x_classes


class TestDirichlet:
    def test_exact_cover(self):
        ds = tagged_dataset(120, 6)
        assert_exact_cover(ds, partition_dirichlet(ds, 5, 0.5, rng=0))

    def test_every_worker_nonempty(self):
        ds = tagged_dataset(60, 4)
        parts = partition_dirichlet(ds, 6, 0.05, rng=3)
        assert all(len(p) > 0 for p in parts)

    def test_small_alpha_more_skewed(self):
        ds = tagged_dataset(2000, 10, seed=4)

        def skew(alpha):
            parts = partition_dirichlet(ds, 5, alpha, rng=5)
            total = 0.0
            for part in parts:
                frac = np.bincount(part.y, minlength=10) / len(part)
                total += np.abs(frac - 0.1).sum()
            return total

        assert skew(0.1) > skew(100.0)

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            partition_dirichlet(tagged_dataset(20, 2), 2, 0.0, rng=0)

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=15, deadline=None)
    def test_cover_property(self, workers):
        ds = tagged_dataset(30 * workers, 4, seed=workers)
        assert_exact_cover(ds, partition_dirichlet(ds, workers, 0.3, rng=1))
