"""Statistical behaviour of a sample-store row over many draws."""

import numpy as np

from repro.data import Dataset, SampleStore


def labeled_dataset(n=120, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.full(n // classes, c) for c in range(classes)])
    x = rng.normal(size=(y.size, 3))
    return Dataset(x, y, classes)


def store(datasets, batch_size, *seeds):
    """One row per dataset, row ``r`` on generator ``seeds[r]``."""
    return SampleStore(
        datasets, batch_size, [np.random.default_rng(s) for s in seeds]
    )


class TestSamplerStatistics:
    def test_long_run_label_frequency_matches_dataset(self):
        ds = labeled_dataset()
        rows = store([ds], 20, 1)
        counts = np.zeros(ds.num_classes)
        for _ in range(120):  # 20 epochs
            _, y = rows.next_batch(0)
            counts += np.bincount(y, minlength=ds.num_classes)
        frequency = counts / counts.sum()
        assert np.allclose(frequency, 0.25, atol=0.01)

    def test_within_epoch_no_duplicates(self):
        ds = labeled_dataset(40)
        ds.x[:, 0] = np.arange(40)
        rows = store([ds], 10, 2)
        seen = []
        for _ in range(4):  # exactly one epoch
            x, _ = rows.next_batch(0)
            seen.extend(x[:, 0].tolist())
        assert len(set(seen)) == 40

    def test_two_samplers_same_data_different_streams(self):
        ds = labeled_dataset()
        rows = store([ds, ds], 16, 3, 4)
        xa, _ = rows.next_batch(0)
        xb, _ = rows.next_batch(1)
        assert not np.array_equal(xa, xb)

    def test_batch_label_variance_reasonable(self):
        """Batches are random, not stratified: per-batch class counts
        fluctuate (sanity that we are not accidentally sorting)."""
        ds = labeled_dataset()
        rows = store([ds], 20, 5)
        per_batch_counts = []
        for _ in range(30):
            _, y = rows.next_batch(0)
            per_batch_counts.append(np.bincount(y, minlength=4))
        spread = np.std(per_batch_counts, axis=0)
        assert (spread > 0.2).all()
