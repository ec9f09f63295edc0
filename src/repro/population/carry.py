"""Columnar carry-forward store for clients evicted from the cohort.

A departing client leaves behind its ``CLIENT_STATE`` rows and its
mini-batch sampler state (packed PCG64 words, cursor, permutation).
Instead of one small record per client, the store keeps one table per
column, cut into fixed-size blocks of ``block`` entries:

* one row table per ``CLIENT_STATE`` array, ``(block, *row_shape)``;
* ``client`` ids, sampler ``cursor`` s and packed ``rng`` words;
* the sampler permutations, ragged (shards differ in length): one flat
  ``order`` buffer per block plus ``offsets`` into it, in entry order.

Entries are dense: entry ``i`` lives in block ``i // block`` at row
``i % block``, and a dict maps client id to entry.  Removing an entry
moves the last entry into its row (swap-with-last), so the tables never
have holes.  Growth appends a new block and never copies the existing
ones, which keeps peak memory at one copy of the rows; only a block's
small order buffer is ever reallocated.

A checkpoint stores each block's used slice of every table as a view,
so the member count grows by a constant per block, not per client, and
:meth:`CarryStore.restore` adopts the loaded tables without a
per-client loop.  Read access (``store[client_id]``) builds a
record dict of copies: ``{"rows": [...], "sampler": {"rng", "cursor",
"order"}}``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.checkpoint.state import RNG_WORDS, unpack_rng

__all__ = ["CarryStore"]

# Entries per block: 1024 rows of a 330-dim float64 state array are
# 2.6 MiB, and the pages of a block's unused rows are never touched.
BLOCK = 1024


class _Block:
    """Fixed-size column tables for ``size`` entries plus their orders."""

    def __init__(self, columns: dict[str, np.ndarray], offsets, order):
        self.columns = columns
        self.offsets = offsets
        self.order = order

    @classmethod
    def empty(cls, size: int, row_specs) -> _Block:
        columns = {
            "client": np.empty(size, dtype=np.int64),
            "cursor": np.empty(size, dtype=np.int64),
            "rng": np.empty((size, RNG_WORDS), dtype=np.uint64),
        }
        for index, (shape, dtype) in enumerate(row_specs):
            columns[f"row{index}"] = np.empty((size, *shape), dtype=dtype)
        return cls(
            columns,
            np.zeros(size + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    @classmethod
    def adopt(cls, size: int, used: int, columns, offsets, order) -> _Block:
        """Take loaded tables as-is; only a partly used block is copied."""
        if used < size:
            columns = {
                name: _padded(table, size)
                for name, table in columns.items()
            }
            offsets = _padded(offsets, size + 1)
        return cls(columns, offsets, order)

    def order_of(self, row: int) -> np.ndarray:
        return self.order[self.offsets[row]:self.offsets[row + 1]]

    def _reserve(self, size: int, keep: int) -> None:
        """Grow the order buffer to ``size`` values, keeping ``keep``."""
        if size > self.order.size:
            grown = np.empty(max(size, 2 * self.order.size), dtype=np.int64)
            grown[:keep] = self.order[:keep]
            self.order = grown

    def append_orders(self, row: int, orders) -> None:
        """Permutations of new entries from ``row`` on (the block's end)."""
        start = self.offsets[row]
        ends = start + np.cumsum([order.size for order in orders])
        self._reserve(int(ends[-1]), start)
        self.order[start:ends[-1]] = np.concatenate(orders)
        self.offsets[row + 1:row + 1 + len(orders)] = ends

    def put_order(self, row: int, used: int, values: np.ndarray) -> None:
        """Replace row ``row``'s permutation, shifting the rows after it."""
        start, stop = self.offsets[row], self.offsets[row + 1]
        end = self.offsets[used]
        shift = values.size - (stop - start)
        if shift:
            self._reserve(end + shift, end)
            self.order[stop + shift:end + shift] = self.order[stop:end]
            self.offsets[row + 1:used + 1] += shift
        self.order[start:start + values.size] = values


def _padded(table: np.ndarray, length: int) -> np.ndarray:
    full = np.empty((length, *table.shape[1:]), dtype=table.dtype)
    full[:len(table)] = table
    return full


class CarryStore(Mapping):
    """``Mapping[client_id, record]`` over columnar tables.

    The mapping view is read-only; the binder writes through
    :meth:`extend` (a cohort's departing clients) and :meth:`pop` (a
    client returns).
    """

    def __init__(self, block: int = BLOCK):
        self.block = int(block)
        self._blocks: list[_Block] = []
        self._index: dict[int, int] = {}
        # (shape, dtype) per CLIENT_STATE array, fixed by the first extend.
        self._row_specs: list[tuple[tuple, np.dtype]] | None = None

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
        block, row = self._locate(self._index[client_id])
        columns = block.columns
        return {
            "rows": [
                columns[f"row{index}"][row].copy()
                for index in range(len(self._row_specs))
            ],
            "sampler": {
                "rng": unpack_rng(columns["rng"][row]),
                "cursor": int(columns["cursor"][row]),
                "order": block.order_of(row).copy(),
            },
        }

    # ------------------------------------------------------------------
    # Mutation (the binder's side)
    # ------------------------------------------------------------------
    def extend(self, clients, sources, rows, rng, cursors, orders) -> None:
        """Store a batch of departing clients after the last entry.

        ``clients`` are distinct ids (an id already stored is replaced).
        Their state is row ``rows[i]`` of each array in ``sources`` (one
        per ``CLIENT_STATE`` array), copied straight into the tables;
        ``rng`` is their packed generators ``(n, RNG_WORDS)``, and
        ``cursors``/``orders`` are their sampler cursors and
        permutations.  Each block the batch reaches takes one slice
        assignment per table.
        """
        clients = [int(client) for client in clients]
        for client in clients:
            if client in self._index:
                self._remove(self._index.pop(client))
        if self._row_specs is None:
            self._row_specs = [
                (source.shape[1:], source.dtype) for source in sources
            ]
        first = len(self._index)
        done = 0
        while done < len(clients):
            entry = first + done
            if entry == len(self._blocks) * self.block:
                self._blocks.append(_Block.empty(self.block, self._row_specs))
            block, row = self._locate(entry)
            take = min(self.block - row, len(clients) - done)
            part = slice(done, done + take)
            columns = block.columns
            columns["client"][row:row + take] = clients[part]
            columns["cursor"][row:row + take] = cursors[part]
            columns["rng"][row:row + take] = rng[part]
            for index, source in enumerate(sources):
                columns[f"row{index}"][row:row + take] = source[rows[part]]
            block.append_orders(row, orders[part])
            done += take
        self._index.update(zip(clients, range(first, first + len(clients))))

    def pop(self, client_id: int) -> dict | None:
        """Remove and return one client's record (``None`` if absent)."""
        if client_id not in self._index:
            return None
        record = self[client_id]
        self._remove(self._index.pop(client_id))
        return record

    def clear(self) -> None:
        self._blocks = []
        self._index = {}
        self._row_specs = None

    def _locate(self, entry: int) -> tuple[_Block, int]:
        block, row = divmod(entry, self.block)
        return self._blocks[block], row

    def _used(self, block: int) -> int:
        return min(self.block, len(self._index) - block * self.block)

    def _remove(self, entry: int) -> None:
        """Fill ``entry``'s row with the last entry (swap-with-last).

        The caller has already dropped ``entry``'s client from the
        index, so ``len(self._index)`` is the last entry's position.
        """
        last = len(self._index)
        if entry == last:
            return
        source, source_row = self._locate(last)
        target, target_row = self._locate(entry)
        order = source.order_of(source_row).copy()
        for name, table in target.columns.items():
            table[target_row] = source.columns[name][source_row]
        target.put_order(
            target_row, self._used(entry // self.block), order
        )
        self._index[int(target.columns["client"][target_row])] = entry

    # ------------------------------------------------------------------
    # Checkpoint integration
    # ------------------------------------------------------------------
    def state(self, prefix: str) -> tuple[dict, dict[str, np.ndarray]]:
        """(manifest values, archive arrays): each block's used slices.

        The arrays are views into the live tables, not copies.
        """
        rows = 0 if self._row_specs is None else len(self._row_specs)
        values = {"entries": len(self), "block": self.block, "rows": rows}
        arrays: dict[str, np.ndarray] = {}
        for number, block in enumerate(self._blocks):
            used = self._used(number)
            if used <= 0:
                break
            for name, table in block.columns.items():
                arrays[f"{prefix}{number}:{name}"] = table[:used]
            arrays[f"{prefix}{number}:offsets"] = block.offsets[:used + 1]
            arrays[f"{prefix}{number}:order"] = (
                block.order[:block.offsets[used]]
            )
        return values, arrays

    def restore(
        self, values: dict, arrays: dict[str, np.ndarray], prefix: str
    ) -> None:
        """Adopt a :meth:`state` snapshot's tables (the store owns them)."""
        self.clear()
        self.block = int(values["block"])
        entries = int(values["entries"])
        names = ["client", "cursor", "rng"] + [
            f"row{index}" for index in range(int(values["rows"]))
        ]
        clients = []
        for number in range(-(-entries // self.block)):
            key = f"{prefix}{number}:"
            clients.append(arrays[key + "client"])
            self._blocks.append(
                _Block.adopt(
                    self.block,
                    len(clients[-1]),
                    {name: arrays[key + name] for name in names},
                    arrays[key + "offsets"],
                    arrays[key + "order"],
                )
            )
        if self._blocks:
            first = self._blocks[0].columns
            self._row_specs = [
                (first[name].shape[1:], first[name].dtype)
                for name in names[3:]
            ]
            self._index = dict(
                zip(np.concatenate(clients).tolist(), range(entries))
            )
