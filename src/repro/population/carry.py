"""Carry-forward store for clients evicted from the cohort.

A departing client leaves behind one row of each array it owned in the
federation — its ``CLIENT_STATE`` rows, then its sample-store row's
permutation and cursor — and its packed PCG64 generator words.  The
binder rebinds right after a round barrier, where most of those rows
are copies: every worker an edge reached holds the same redistributed
momentum, and the γℓ accumulators were just reset to zero.  So the
store keeps each *distinct* row of a departing batch once.

**Batches and pools.**  One :meth:`CarryStore.extend` call (one
rebind's departures) makes one batch:

* the ``client`` ids and packed ``rng`` words, one per entry;
* per carried column, a *pool* of the batch's distinct rows,
  ``(d, *row_shape)`` with ``d`` at most the batch size, in order of
  first occurrence, and one reference per entry into it.

A dict maps client id to (batch, position), and a returning client
reads ``pool[ref[position]]`` of each column back bit for bit.

**Byte equality.**  Two rows share a pool row only if their bytes are
equal, so +0.0 and -0.0 stay apart, and so do NaNs with different
payloads: each column is grouped by ``np.unique`` over a void view of
its rows, which compares bytes whatever the dtype.

**Memory bound.**  A batch's entries are dense: removing one moves the
batch's last entry into its place (swap-with-last), and a batch's
pools go with its last entry.  When removals leave a batch's pools
holding more than twice the bytes its live entries' rows would take
in a dense table, the batch drops every pool row that no live entry
references (a smaller copy, in pool order).  So
:attr:`CarryStore.row_bytes` never exceeds twice ``len(store)`` times
the bytes of one entry's rows.  A compaction keeps at most one row per
live entry and column, so at least half of a batch's entries leave
before its next one: a return costs one entry's rows, amortized, even
when no two rows of a batch are equal.  The ids, generator words and
references are per-entry bookkeeping, as the ids and generator words
of a dense table are.

**Checkpoint layout.**  :meth:`CarryStore.state` writes a fixed set of
members, however many clients and batches the store holds: ``client``,
``rng``, ``offsets`` (where each batch's entries start), per column
``pool<k>`` (every batch's referenced pool rows, concatenated) and
``ref<k>``, and ``pool_offsets`` (where each batch's pool starts, one
column per carried column).  :meth:`CarryStore.restore` slices the
loaded members into per-batch views without a per-client loop; they
stay allocated until no restored batch views them.  The older
fixed-block layouts (dense per-entry row tables, and before them
ragged permutation members) raise :class:`CheckpointError` naming the
carry format.  Read access (``store[client_id]``) builds a record dict
of copies: ``{"rows": [one per carried array], "rng": state}``.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from itertools import repeat

import numpy as np

from repro.checkpoint.format import CheckpointError
from repro.checkpoint.state import RNG_WORDS, unpack_rng

__all__ = ["CarryStore"]

# Pool references: a batch is one rebind's departures.
REF_DTYPE = np.int32


def _distinct(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(pool, refs)``: the distinct rows of ``table`` by bytes, in
    order of first occurrence, and each row's index into them."""
    rows = len(table)
    flat = table.reshape(rows, -1)
    width = np.dtype((np.void, flat.shape[1] * table.dtype.itemsize))
    _, first, inverse = np.unique(
        flat.view(width)[:, 0], return_index=True, return_inverse=True
    )
    if first.size == rows:
        return table, np.arange(rows, dtype=REF_DTYPE)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=REF_DTYPE)
    rank[order] = np.arange(order.size)
    return table[first[order]], rank[inverse]


def _referenced(pool: np.ndarray, refs: np.ndarray):
    """``(rows, refs)``: the rows of ``pool`` that ``refs`` name, in pool
    order, and ``refs`` pointed at them."""
    used = np.zeros(len(pool), dtype=bool)
    used[refs] = True
    if used.all():
        return pool, refs
    return pool[used], (np.cumsum(used, dtype=REF_DTYPE) - 1)[refs]


class _Batch:
    """One ``extend`` call's entries: the first ``live`` of each table."""

    __slots__ = ("client", "rng", "pools", "refs", "live", "held", "entry_bytes")

    def __init__(self, client, rng, pools, refs):
        self.client, self.rng = client, rng
        self.pools, self.refs = pools, refs
        self.live = len(client)
        self.held = self.entry_bytes = 0
        for pool in pools:
            self.held += pool.nbytes
            self.entry_bytes += pool.dtype.itemsize * math.prod(pool.shape[1:])

    def compact(self) -> None:
        """Drop the dead entries and every pool row no live entry names."""
        live = self.live
        self.client = self.client[:live].copy()
        self.rng = self.rng[:live].copy()
        self.held = 0
        for column, (pool, refs) in enumerate(zip(self.pools, self.refs)):
            pool, self.refs[column] = _referenced(pool, refs[:live].copy())
            self.pools[column] = pool
            self.held += pool.nbytes


class CarryStore(Mapping):
    """``Mapping[client_id, record]`` over per-batch pools of rows.

    The mapping view is read-only; the binder writes through
    :meth:`extend` (a cohort's departing clients) and :meth:`pop` (a
    client returns).
    """

    def __init__(self):
        self._batches: dict[int, _Batch] = {}
        # client id -> (batch number, position in the batch)
        self._index: dict[int, tuple[int, int]] = {}
        self._next = 0

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self):
        return iter(self._index)

    def __contains__(self, client_id) -> bool:
        return client_id in self._index

    def __getitem__(self, client_id) -> dict:
        number, position = self._index[client_id]
        batch = self._batches[number]
        return {
            "rows": [
                pool[refs[position]].copy()
                for pool, refs in zip(batch.pools, batch.refs)
            ],
            "rng": unpack_rng(batch.rng[position]),
        }

    @property
    def row_bytes(self) -> int:
        """Bytes of carried rows the pools hold (not the ids, generator
        words or references)."""
        return sum(batch.held for batch in self._batches.values())

    # ------------------------------------------------------------------
    # Mutation (the binder's side)
    # ------------------------------------------------------------------
    def extend(self, clients, sources, rows, rng) -> None:
        """Store a batch of departing clients as one new batch.

        ``clients`` are distinct ids (an id already stored is replaced).
        Their state is row ``rows[i]`` of each array in ``sources``, and
        ``rng`` is their packed generators ``(n, RNG_WORDS)``.  Each
        column's rows are gathered once and grouped by bytes into the
        batch's pool.
        """
        clients = np.array(clients, dtype=np.int64)
        if not clients.size:
            return
        ids = clients.tolist()
        for client in ids:
            if client in self._index:
                self._remove(client)
        rows = np.asarray(rows)
        pools, refs = [], []
        for source in sources:
            pool, ref = _distinct(source[rows])
            pools.append(pool)
            refs.append(ref)
        number = self._next
        self._next += 1
        self._batches[number] = _Batch(
            clients,
            np.array(rng, dtype=np.uint64).reshape(-1, RNG_WORDS),
            pools,
            refs,
        )
        self._index.update(zip(ids, zip(repeat(number), range(len(ids)))))

    def pop(self, client_id: int) -> dict | None:
        """Remove and return one client's record (``None`` if absent)."""
        if client_id not in self._index:
            return None
        record = self[client_id]
        self._remove(client_id)
        return record

    def clear(self) -> None:
        self._batches = {}
        self._index = {}
        self._next = 0

    def _remove(self, client_id: int) -> None:
        """Fill the client's position with its batch's last entry."""
        number, position = self._index.pop(client_id)
        batch = self._batches[number]
        last = batch.live = batch.live - 1
        if not last:
            del self._batches[number]
            return
        if position != last:
            batch.client[position] = batch.client[last]
            batch.rng[position] = batch.rng[last]
            for refs in batch.refs:
                refs[position] = refs[last]
            self._index[int(batch.client[position])] = (number, position)
        if batch.held > 2 * last * batch.entry_bytes:
            batch.compact()

    # ------------------------------------------------------------------
    # Checkpoint integration
    # ------------------------------------------------------------------
    def state(self, prefix: str) -> tuple[dict, dict[str, np.ndarray]]:
        """(manifest values, archive arrays): every batch's live entries
        and referenced pool rows, one member per table."""
        batches = list(self._batches.values())
        columns = len(batches[0].pools) if batches else 0
        values = {"entries": len(self), "rows": columns}
        if not batches:
            return values, {}
        # kept[b][k]: batch b's referenced rows of column k, and its refs.
        kept = [
            [
                _referenced(pool, refs[:batch.live])
                for pool, refs in zip(batch.pools, batch.refs)
            ]
            for batch in batches
        ]
        pool_offsets = np.zeros((len(batches) + 1, columns), dtype=np.int64)
        pool_offsets[1:] = np.cumsum(
            [[len(rows) for rows, _ in batch] for batch in kept], axis=0
        )
        arrays = {
            prefix + "client": np.concatenate(
                [batch.client[:batch.live] for batch in batches]
            ),
            prefix + "rng": np.concatenate(
                [batch.rng[:batch.live] for batch in batches]
            ),
            prefix + "offsets": np.cumsum(
                [0] + [batch.live for batch in batches], dtype=np.int64
            ),
            prefix + "pool_offsets": pool_offsets,
        }
        for column in range(columns):
            arrays[f"{prefix}pool{column}"] = np.concatenate(
                [batch[column][0] for batch in kept]
            )
            arrays[f"{prefix}ref{column}"] = np.concatenate(
                [batch[column][1] for batch in kept]
            )
        return values, arrays

    def restore(
        self, values: dict, arrays: dict[str, np.ndarray], prefix: str
    ) -> None:
        """Adopt a :meth:`state` snapshot: each batch's tables are views
        of the loaded members."""
        self.clear()
        entries = int(values["entries"])
        if not entries:
            return
        if prefix + "client" not in arrays:
            raise CheckpointError(
                "checkpoint holds carried clients in an older carry format "
                "(fixed-size blocks of per-entry rows); carried rows are "
                "now pools of distinct rows per departing batch"
            )
        columns = int(values["rows"])
        clients = arrays[prefix + "client"]
        rng = arrays[prefix + "rng"]
        offsets = arrays[prefix + "offsets"]
        pool_offsets = arrays[prefix + "pool_offsets"].tolist()
        pools = [arrays[f"{prefix}pool{column}"] for column in range(columns)]
        refs = [arrays[f"{prefix}ref{column}"] for column in range(columns)]
        bounds = offsets.tolist()
        for number, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            starts, stops = pool_offsets[number], pool_offsets[number + 1]
            self._batches[number] = _Batch(
                clients[lo:hi],
                rng[lo:hi],
                [pool[a:b] for pool, a, b in zip(pools, starts, stops)],
                [ref[lo:hi] for ref in refs],
            )
        self._next = len(bounds) - 1
        sizes = np.diff(offsets)
        numbers = np.repeat(np.arange(sizes.size), sizes)
        positions = np.arange(entries) - np.repeat(offsets[:-1], sizes)
        self._index = dict(
            zip(clients.tolist(), zip(numbers.tolist(), positions.tolist()))
        )
