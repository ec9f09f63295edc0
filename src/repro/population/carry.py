"""Columnar carry-forward store for clients evicted from the cohort.

A departing client leaves behind one row of each array it owned in the
federation — its ``CLIENT_STATE`` rows, then its sample-store row's
permutation and cursor — and its packed PCG64 generator words.  Every
row has a fixed shape (the store's rows are as wide as the shard
provider's longest shard), so instead of one small record per client
the store keeps one table per column, cut into fixed-size blocks of
``block`` entries:

* ``client`` ids and packed ``rng`` words;
* one ``row<k>`` table per carried array, ``(block, *row_shape)``.

Entries are dense: entry ``i`` lives in block ``i // block`` at row
``i % block``, and a dict maps client id to entry.  Removing an entry
moves the last entry into its row (swap-with-last), so the tables never
have holes.  Growth appends a new block and never copies the existing
ones, which keeps peak memory at one copy of the rows.

A checkpoint stores each block's used slice of every table as a view,
so the member count grows by a constant per block, not per client, and
:meth:`CarryStore.restore` adopts the loaded tables without a
per-client loop.  Read access (``store[client_id]``) builds a record
dict of copies: ``{"rows": [one per carried array], "rng": state}``.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.checkpoint.format import CheckpointError
from repro.checkpoint.state import RNG_WORDS, unpack_rng

__all__ = ["CarryStore"]

# Entries per block: 1024 rows of a 330-dim float64 state array are
# 2.6 MiB, and the pages of a block's unused rows are never touched.
BLOCK = 1024


def _empty_block(size: int, row_specs) -> dict[str, np.ndarray]:
    block = {
        "client": np.empty(size, dtype=np.int64),
        "rng": np.empty((size, RNG_WORDS), dtype=np.uint64),
    }
    for index, (shape, dtype) in enumerate(row_specs):
        block[f"row{index}"] = np.empty((size, *shape), dtype=dtype)
    return block


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
        self._blocks: list[dict[str, np.ndarray]] = []
        self._index: dict[int, int] = {}
        # (shape, dtype) per carried array, fixed by the first extend.
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
        return {
            "rows": [
                block[f"row{index}"][row].copy()
                for index in range(len(self._row_specs))
            ],
            "rng": unpack_rng(block["rng"][row]),
        }

    # ------------------------------------------------------------------
    # Mutation (the binder's side)
    # ------------------------------------------------------------------
    def extend(self, clients, sources, rows, rng) -> None:
        """Store a batch of departing clients after the last entry.

        ``clients`` are distinct ids (an id already stored is replaced).
        Their state is row ``rows[i]`` of each array in ``sources``,
        copied straight into the tables, and ``rng`` is their packed
        generators ``(n, RNG_WORDS)``.  Each block the batch reaches
        takes one slice assignment per table.
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
                self._blocks.append(_empty_block(self.block, self._row_specs))
            block, row = self._locate(entry)
            take = min(self.block - row, len(clients) - done)
            part = slice(done, done + take)
            block["client"][row:row + take] = clients[part]
            block["rng"][row:row + take] = rng[part]
            for index, source in enumerate(sources):
                block[f"row{index}"][row:row + take] = source[rows[part]]
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

    def _locate(self, entry: int) -> tuple[dict[str, np.ndarray], int]:
        block, row = divmod(entry, self.block)
        return self._blocks[block], row

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
        for name, table in target.items():
            table[target_row] = source[name][source_row]
        self._index[int(target["client"][target_row])] = entry

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
            used = min(self.block, len(self) - number * self.block)
            if used <= 0:
                break
            for name, table in block.items():
                arrays[f"{prefix}{number}:{name}"] = table[:used]
        return values, arrays

    def restore(
        self, values: dict, arrays: dict[str, np.ndarray], prefix: str
    ) -> None:
        """Adopt a :meth:`state` snapshot's tables (the store owns them).

        Only a partly used last block is copied, to pad it to ``block``
        rows.
        """
        self.clear()
        self.block = int(values["block"])
        entries = int(values["entries"])
        if f"{prefix}0:cursor" in arrays:
            raise CheckpointError(
                "checkpoint holds carried clients in the older ragged "
                "carry format (per-block cursor and order members); "
                "carried permutations and cursors are now row columns"
            )
        names = ["client", "rng"] + [
            f"row{index}" for index in range(int(values["rows"]))
        ]
        clients = []
        for number in range(-(-entries // self.block)):
            key = f"{prefix}{number}:"
            block = {name: arrays[key + name] for name in names}
            clients.append(block["client"])
            if len(clients[-1]) < self.block:
                block = {
                    name: _padded(table, self.block)
                    for name, table in block.items()
                }
            self._blocks.append(block)
        if self._blocks:
            first = self._blocks[0]
            self._row_specs = [
                (first[name].shape[1:], first[name].dtype)
                for name in names[2:]
            ]
            self._index = dict(
                zip(np.concatenate(clients).tolist(), range(entries))
            )
