"""The sample store's test oracle: one batch stream, written as a loop.

A :class:`BatchSampler` cycles through reshuffled epochs of one dataset,
yielding fixed-size batches forever, with each epoch's permutation drawn
from its own generator.  Row ``w`` of :class:`repro.data.SampleStore`
must yield exactly a :class:`BatchSampler`'s batches over worker ``w``'s
dataset and generator: the store tests, the population batteries and
the one-worker reduction (``tests/algorithms/test_centralized.py``)
check that against this loop.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int


class BatchSampler:
    """Infinite stream of shuffled mini-batches over a dataset."""

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        rng: np.random.Generator | int | None = None,
    ):
        # The empty-dataset check must come first: an empty dataset is the
        # more fundamental problem, and clamping batch_size against
        # len(dataset) == 0 would otherwise report a batch-size error.
        if len(dataset) == 0:
            raise ValueError("cannot sample from an empty dataset")
        self.dataset = dataset
        self.batch_size = min(
            check_positive_int(batch_size, "batch_size"), len(dataset)
        )
        self.rng = make_rng(rng)
        self._order = self.rng.permutation(len(dataset))
        self._cursor = 0

    def next_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Return the next ``(x, y)`` mini-batch, reshuffling per epoch."""
        if self._cursor + self.batch_size > self._order.size:
            self._order = self.rng.permutation(len(self.dataset))
            self._cursor = 0
        take = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return self.dataset.x[take], self.dataset.y[take]
