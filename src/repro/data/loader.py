"""Mini-batch sampling: the federation's sample store.

A worker's batch stream cycles through reshuffled epochs of its dataset,
yielding fixed-size batches forever — the per-iteration mini-batch SGD
of Algorithm 1 (the paper uses batch size 64) — with permutations from
the worker's own generator, so every experiment's gradient sequence is
reproducible.  :class:`SampleStore` holds every worker's stream of a
federation as one row of fixed-width arrays; centralized training is
the one-row store of a one-worker federation.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.utils.validation import check_positive_int

__all__ = ["SampleStore"]


class SampleStore:
    """Every worker's batch stream, one row each, in fixed-width arrays.

    Row ``w`` holds worker ``w``'s samples ``x[w]`` and labels ``y[w]``
    padded to ``width`` (the longest dataset, unless the caller will
    bind longer ones), a permutation ``order[w]`` of its first
    ``size[w]`` positions (zeros beyond), a ``cursor[w]``, its batch
    length ``batch[w] = min(batch_size, size[w])`` and its generator
    ``rngs[w]``, which reshuffles the row when its epoch runs out.
    ``uniform`` (all batch lengths equal, so one :meth:`gather` serves
    any selection) is re-derived on every :meth:`bind`.
    """

    def __init__(self, datasets, batch_size: int, rngs, *, width=None):
        datasets = list(datasets)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.width = max(map(len, datasets)) if width is None else int(width)
        rows, first = len(datasets), datasets[0]
        self.num_classes = first.num_classes
        self.x = np.zeros((rows, self.width, *first.x.shape[1:]))
        self.y = np.zeros((rows, self.width), dtype=np.int64)
        self.order = np.zeros((rows, self.width), dtype=np.int64)
        self.cursor = np.zeros(rows, dtype=np.int64)
        self.size = np.zeros(rows, dtype=np.int64)
        self.batch = np.zeros(rows, dtype=np.int64)
        self.rngs = list(rngs)
        self._rows = np.arange(rows)
        self.bind(self._rows, datasets)

    def bind(self, rows, datasets) -> None:
        """Write ``datasets`` into ``rows``, each on a fresh epoch."""
        rows = np.asarray(rows, dtype=np.int64)
        for row, dataset in zip(rows.tolist(), datasets):
            size = len(dataset)
            if size == 0:
                raise ValueError("cannot sample from an empty dataset")
            if size > self.width or dataset.x.shape[1:] != self.x.shape[2:]:
                raise ValueError(
                    f"a dataset of shape {dataset.x.shape} does not fit "
                    f"rows of shape {self.x.shape[1:]}"
                )
            self.x[row, :size] = dataset.x
            self.y[row, :size] = dataset.y
            self.order[row, :size] = self.rngs[row].permutation(size)
            self.order[row, size:] = 0
            self.size[row] = size
        self.cursor[rows] = 0
        np.minimum(self.size, self.batch_size, out=self.batch)
        self.uniform = bool((self.batch == self.batch[0]).all())
        self._datasets = None

    @property
    def datasets(self) -> list[Dataset]:
        """Each row's samples as a :class:`Dataset` view into the store."""
        if self._datasets is None:
            self._datasets = [
                Dataset(self.x[row, :n], self.y[row, :n], self.num_classes)
                for row, n in enumerate(self.size.tolist())
            ]
        return self._datasets

    def _reshuffle(self, row: int) -> None:
        size = self.size[row]
        self.order[row, :size] = self.rngs[row].permutation(size)
        self.cursor[row] = 0

    def next_batch(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s next ``(x, y)`` mini-batch."""
        cursor, batch = self.cursor.item(row), self.batch.item(row)
        if cursor + batch > self.size.item(row):
            self._reshuffle(row)
            cursor = 0
        take = self.order[row, cursor:cursor + batch]
        self.cursor[row] = cursor + batch
        # Indexing the row views is the faster path for one row.
        return self.x[row][take], self.y[row][take]

    def gather(self, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """The selected rows' next batches as ``(R, batch, ...)`` arrays,
        each row advancing as :meth:`next_batch` would.  The selected
        rows must share one batch length."""
        rows = self._rows[rows]
        batch = int(self.batch[rows].max(initial=0))
        for row in rows[self.cursor[rows] + batch > self.size[rows]].tolist():
            self._reshuffle(row)
        base = rows * self.width
        starts = base + self.cursor[rows]
        self.cursor[rows] += batch
        take = self.order.reshape(-1)[starts[:, None] + np.arange(batch)]
        take += base[:, None]
        return (
            np.take(self.x.reshape(-1, *self.x.shape[2:]), take, axis=0),
            np.take(self.y.reshape(-1), take),
        )
