"""Tests for the federation's sample store and its batch-stream oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint.state import federation_state, restore_federation
from repro.core import Federation
from repro.data import Dataset, SampleStore
from repro.nn.models import make_logistic_regression
from repro.utils.rng import child_seed
from tests.data.sampler import BatchSampler


def toy(n=10):
    x = np.arange(n, dtype=float).reshape(n, 1)
    return Dataset(x, np.zeros(n, dtype=int), 1)


class TestBatchSampler:
    def test_batch_shapes(self):
        sampler = BatchSampler(toy(10), 4, rng=0)
        x, y = sampler.next_batch()
        assert x.shape == (4, 1)
        assert y.shape == (4,)

    def test_epoch_covers_all_samples(self):
        sampler = BatchSampler(toy(12), 4, rng=0)
        seen = []
        for _ in range(3):
            x, _ = sampler.next_batch()
            seen.extend(x.ravel().tolist())
        assert sorted(seen) == list(range(12))

    def test_reshuffles_between_epochs(self):
        sampler = BatchSampler(toy(64), 64, rng=1)
        first = sampler.next_batch()[0].ravel()
        second = sampler.next_batch()[0].ravel()
        assert not np.array_equal(first, second)
        assert sorted(first) == sorted(second)

    def test_deterministic_given_seed(self):
        a = BatchSampler(toy(20), 8, rng=3)
        b = BatchSampler(toy(20), 8, rng=3)
        for _ in range(5):
            xa, _ = a.next_batch()
            xb, _ = b.next_batch()
            assert np.array_equal(xa, xb)

    def test_batch_larger_than_dataset_clamped(self):
        sampler = BatchSampler(toy(5), 100, rng=0)
        x, _ = sampler.next_batch()
        assert x.shape[0] == 5

    def test_empty_dataset_raises(self):
        empty = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 1)
        with pytest.raises(ValueError):
            BatchSampler(empty, 4, rng=0)

    def test_empty_dataset_reported_before_bad_batch_size(self):
        """Empty dataset is the first failure, even with an invalid batch.

        Regression: the batch-size clamp used to run before the emptiness
        check, so BatchSampler(empty, 0) blamed the batch size.
        """
        empty = Dataset(np.zeros((0, 1)), np.zeros(0, dtype=int), 1)
        with pytest.raises(ValueError, match="empty dataset"):
            BatchSampler(empty, 0, rng=0)

    def test_partial_tail_not_emitted(self):
        """10 samples, batch 4 -> epochs of 2 full batches, then reshuffle."""
        sampler = BatchSampler(toy(10), 4, rng=0)
        for _ in range(10):
            x, _ = sampler.next_batch()
            assert x.shape[0] == 4


# ----------------------------------------------------------------------
# SampleStore: every row is an independent BatchSampler, bit for bit
# ----------------------------------------------------------------------
FEATURES, CLASSES, SEED = 2, 3, 7


def _datasets(sizes):
    rng = np.random.default_rng(len(sizes))
    return [
        Dataset(rng.normal(size=(n, FEATURES)), rng.integers(0, CLASSES, n),
                CLASSES)
        for n in sizes
    ]


def _federation(datasets, batch_size):
    model = make_logistic_regression(FEATURES, CLASSES, rng=0)
    return Federation(
        model, [datasets], datasets[0], batch_size=batch_size, seed=SEED
    )


def _draw(store, selector):
    """(rows, batches) of one call: ``gather`` on a selector while the
    batch lengths agree, else each selected row's ``next_batch``."""
    kind, picks = selector
    workers = np.arange(len(store.rngs))
    if kind == "row":
        row = picks[0] % workers.size
        return [row], [store.next_batch(row)]
    if kind == "all":
        rows = slice(None)
    elif kind == "slice":
        row = picks[0] % workers.size
        rows = slice(row, row + 1)
    else:
        rows = np.unique(np.asarray(picks) % workers.size)
    if store.uniform:
        xs, ys = store.gather(rows)
        return workers[rows], list(zip(xs, ys))
    return workers[rows], [store.next_batch(row) for row in workers[rows]]


SELECTORS = st.tuples(
    st.sampled_from(["all", "slice", "index", "row"]),
    st.lists(st.integers(0, 15), min_size=1, max_size=6),
)


class TestSampleStoreStreams:
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
        batch_size=st.integers(1, 8),
        calls=st.lists(SELECTORS, min_size=1, max_size=40),
        resume_at=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_replay_independent_samplers(
        self, sizes, batch_size, calls, resume_at
    ):
        """Any sequence of selectors, across epoch boundaries and a
        checkpoint round trip, leaves each row's batches equal to an
        independent BatchSampler's over the same dataset and stream."""
        datasets = _datasets(sizes)
        samplers = [
            BatchSampler(
                dataset, batch_size,
                np.random.default_rng(child_seed(SEED, "sampler", row)),
            )
            for row, dataset in enumerate(datasets)
        ]
        fed = _federation(datasets, batch_size)
        for step, selector in enumerate(calls):
            if step == resume_at:
                values, arrays = federation_state(fed)
                fed = _federation(datasets, batch_size)
                _draw(fed.store, ("all", [0]))  # desynchronize on purpose
                restore_federation(fed, values, arrays)
            rows, batches = _draw(fed.store, selector)
            for row, (x, y) in zip(rows, batches):
                want_x, want_y = samplers[row].next_batch()
                np.testing.assert_array_equal(x, want_x)
                np.testing.assert_array_equal(y, want_y)
        for row, sampler in enumerate(samplers):
            size = len(datasets[row])
            assert fed.store.cursor[row] == sampler._cursor
            np.testing.assert_array_equal(
                fed.store.order[row, :size], sampler._order
            )
            assert fed.store.rngs[row].bit_generator.state == sampler.rng.bit_generator.state

    def test_bind_rederives_uniform_batches(self):
        short, long_ = _datasets([5, 5]), _datasets([40])
        store = SampleStore(
            short, 16, [np.random.default_rng(r) for r in range(2)],
            width=40,
        )
        assert store.uniform and store.batch.tolist() == [5, 5]
        store.bind([1], long_)
        assert not store.uniform and store.batch.tolist() == [5, 16]
        store.bind([0], long_)
        assert store.uniform and store.batch.tolist() == [16, 16]

    def test_bind_refuses_what_does_not_fit(self):
        store = SampleStore(
            _datasets([4]), 2, [np.random.default_rng(0)], width=4
        )
        with pytest.raises(ValueError, match="does not fit"):
            store.bind([0], _datasets([5]))
        empty = Dataset(np.zeros((0, FEATURES)), np.zeros(0, int), CLASSES)
        with pytest.raises(ValueError, match="empty dataset"):
            store.bind([0], [empty])

    def test_worker_datasets_are_views_into_the_store(self):
        datasets = _datasets([3, 6])
        fed = _federation(datasets, 4)
        for view, dataset in zip(fed.worker_datasets, datasets):
            np.testing.assert_array_equal(view.x, dataset.x)
            np.testing.assert_array_equal(view.y, dataset.y)
            assert np.shares_memory(view.x, fed.store.x)
