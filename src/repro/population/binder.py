"""Lazy cohort materialization into the stacked worker buffers.

The :class:`PopulationBinder` is the bridge between a registered
population (possibly millions of clients, described by a shard provider
and an edge count) and the live
:class:`~repro.core.federation.Federation` an algorithm actually trains:
the federation's ``(W, dim)`` stacked state holds one *slot* per cohort
member, and the binder maps slots to client ids, rebinding them at every
round boundary ``τ`` of the attached algorithm.

A registered client costs nothing until it is drawn: edge ``ℓ`` owns the
contiguous client-id block ``[ℓ·n, (ℓ+1)·n)``, ``n`` the clients per
edge, and per-client randomness is derived, not stored.  Period ``p``'s
cohort draws ``cohort_per_edge`` clients of each edge from a fresh
generator on ``child_seed(seed, "cohort", p, edge)``, so a draw is a pure
function of ``(seed, p, edge)``: crash/resume replays the same cohorts
with nothing to checkpoint.  Two properties of the draw matter:

* **identity shortcut** — a cohort covering the whole edge is the edge's
  client ids in order, drawn without consuming randomness, so a
  full-participation virtual run is structurally identical to a classic
  federation (same worker order, same derived sampler streams);
* **bounded cost** — a partial draw uses Floyd's algorithm, O(k) time
  and memory in the cohort size ``k``, never O(population).

Slot-pool lifecycle (per edge block, each rebind period):

* **retained** clients — sampled again — keep their slot untouched:
  state rows, sample-store row, everything stays in place (the
  LRU-ish fast path; at full participation every client is retained and
  a virtual run is bit-identical to a classic federation);
* **departing** clients save a compact carry-forward record into the
  :class:`~repro.population.carry.CarryStore`: the rows of the
  algorithm's declared ``CLIENT_STATE`` arrays (its per-client
  momentum/optimizer buffers), its store row's permutation and cursor,
  and its generator state.  A rebind follows a round barrier, where
  the clients an edge reached hold copies of one broadcast row and
  zeroed accumulators, so the store keeps each distinct row of a
  departing batch once.  The model row ``x`` is deliberately *not*
  carried — a client rejoining adopts the current broadcast model,
  exactly like ``SampledFedAvg`` participants start from the server
  model;
* **arriving** clients take the freed slots in sorted order
  (deterministic slot assignment).  A *returning* client restores its
  carry record bit-exactly — same momentum rows, same batch stream, as
  if it had been frozen (the faults ``carry_forward`` policy
  generalized across cohort membership).  A *fresh* client adopts the
  slot's current rows, which at fault-free round boundaries equal the
  post-round broadcast.

A client ever materialized is either bound now or carried, so the
``population_round`` event's ``materialized`` count is the cohort size
plus ``len(carry)``.  Aggregation weights follow the bound shards' sample
counts: a bind that changes them re-derives the federation's weights.

Per-client mini-batch streams are keyed by **client id**, not slot:
client ``c`` always samples from ``child_seed(seed, "sampler", c)``,
the stream a fully materialized federation would give worker ``c`` —
this identity is what makes full-participation virtual runs reproduce
the golden trajectories.

A rebind handles the whole slot pool as one batch: one set difference
finds every edge's departures and arrivals, the departures enter the
carry store in one :meth:`~repro.population.carry.CarryStore.extend`
(one vectorized grouping of each carried column),
the arrivals' sampler and shard streams are seeded together
(:func:`~repro.utils.rng.default_rng_states`), and their shards enter
the federation's :class:`~repro.data.loader.SampleStore` in one
:meth:`~repro.data.loader.SampleStore.bind`.  The store's rows are as
wide as the shard provider's longest shard, so any client fits any
slot.  The per-client work left is each client's own random draws.
"""

from __future__ import annotations

import numpy as np

from repro.checkpoint.state import pack_rngs, set_rng_state
from repro.core.federation import Federation
from repro.data.loader import SampleStore
from repro.population.carry import CarryStore
from repro.telemetry import get_tracer
from repro.utils.rng import child_seed, child_seeds, default_rng_states
from repro.utils.validation import check_positive_int

__all__ = ["PopulationBinder"]


def _floyd_sample(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct values from range(n) in O(k) (Floyd's algorithm)."""
    chosen: set[int] = set()
    for j in range(n - k, n):
        t = int(rng.integers(0, j + 1))
        chosen.add(t if t not in chosen else j)
    return np.fromiter(chosen, dtype=np.int64, count=k)


class PopulationBinder:
    """Slot pool binding a sampled cohort into a federation's buffers.

    The ``shards`` provider's ``num_clients`` registered clients split
    evenly over ``num_edges`` edges, and each period binds
    ``cohort_per_edge`` clients of every edge (at most all of them).
    """

    def __init__(
        self, shards, *, num_edges: int, cohort_per_edge: int, seed: int
    ):
        self.num_edges = check_positive_int(num_edges, "num_edges")
        if shards.num_clients % num_edges:
            raise ValueError(
                f"{shards.num_clients} clients do not split evenly over "
                f"{num_edges} edges"
            )
        self.clients_per_edge = shards.num_clients // num_edges
        self.cohort_per_edge = min(
            check_positive_int(cohort_per_edge, "cohort_per_edge"),
            self.clients_per_edge,
        )
        self.shards = shards
        self.seed = int(seed)
        self.fed: Federation | None = None
        # slot -> client id for the currently materialized cohort.
        self.slot_client: np.ndarray | None = None
        # Evicted clients' state, one pool of distinct rows per departing
        # batch; ``carry[client_id]`` reads back {"rows": [one row per
        # ``_carried`` array], "rng": generator state}.
        self.carry = CarryStore()

    @property
    def cohort_size(self) -> int:
        return self.cohort_per_edge * self.num_edges

    def draw(self, period: int) -> np.ndarray:
        """Sorted client ids of period ``p``'s cohort (edge-major)."""
        n, k = self.clients_per_edge, self.cohort_per_edge
        if k == n:
            return np.arange(n * self.num_edges)
        blocks = []
        for edge in range(self.num_edges):
            rng = np.random.default_rng(
                child_seed(self.seed, "cohort", period, edge)
            )
            picks = _floyd_sample(rng, n, k)
            picks.sort()
            blocks.append(picks + edge * n)
        return np.concatenate(blocks)

    # ------------------------------------------------------------------
    # Federation construction
    # ------------------------------------------------------------------
    def build_federation(
        self,
        model,
        test_set,
        *,
        batch_size: int = 64,
    ) -> Federation:
        """Materialize period-0's cohort into a fresh federation.

        The federation's sample store is built once, at the provider's
        longest shard, every slot sampling from its *client's* stream
        (``child_seed(seed, "sampler", client_id)``).  At full
        participation slot ``i`` binds client ``i``, so the federation
        matches the classic construction bit for bit.
        """
        cohort = self.draw(0)
        k = self.cohort_per_edge
        datasets = list(self.shards.shards(cohort))
        streams = child_seeds(self.seed, "sampler", ids=cohort)
        store = SampleStore(
            datasets,
            batch_size,
            [np.random.default_rng(stream) for stream in streams.tolist()],
            width=self.shards.max_shard_size,
        )
        fed = Federation(
            model,
            [
                datasets[e * k:(e + 1) * k]
                for e in range(self.num_edges)
            ],
            test_set,
            batch_size=batch_size,
            store=store,
        )
        self.fed = fed
        self.slot_client = cohort.copy()
        return fed

    # ------------------------------------------------------------------
    # Carry-forward state access
    # ------------------------------------------------------------------
    def _carried(self, algorithm) -> list[np.ndarray]:
        """The slot-indexed arrays a departing client leaves behind:
        the algorithm's ``CLIENT_STATE``, then its store row's
        permutation and cursor."""
        arrays = []
        for name in algorithm.CLIENT_STATE:
            obj, leaf = algorithm._ckpt_resolve(name)
            arrays.append(getattr(obj, leaf))
        return arrays + [self.fed.store.order, self.fed.store.cursor]

    def _save_carry(self, algorithm, slots, clients) -> None:
        """Store the departing ``clients`` bound to ``slots``."""
        rngs = self.fed.store.rngs
        self.carry.extend(
            clients,
            self._carried(algorithm),
            slots,
            pack_rngs(rngs[slot] for slot in slots.tolist()),
        )

    def _bind_clients(self, algorithm, slots, clients, datasets) -> None:
        """Materialize ``clients`` into ``slots`` (carry or adopt).

        A slot keeps its generator object: the client leaving it has
        been stored (or is being replaced wholesale), so the generator
        is re-pointed at the arriving client's stream instead of a new
        one being seeded.  Fresh clients' streams are seeded in one
        batch, every arrival's shard enters the store in one call, and
        returning clients then get their carried rows back.  A bind that
        changes the slots' sample counts re-derives the federation's
        aggregation weights.
        """
        store = self.fed.store
        sizes = store.size[slots]
        records = [self.carry.pop(client) for client in clients.tolist()]
        fresh = np.array([record is None for record in records], dtype=bool)
        streams = child_seeds(self.seed, "sampler", ids=clients[fresh])
        states = default_rng_states(streams)
        for slot, state in zip(slots[fresh].tolist(), states):
            set_rng_state(store.rngs[slot], state)
        store.bind(slots, datasets)
        carried = self._carried(algorithm) if not fresh.all() else []
        for slot, record in zip(slots.tolist(), records):
            if record is not None:
                for array, row in zip(carried, record["rows"]):
                    array[slot] = row
                set_rng_state(store.rngs[slot], record["rng"])
        if not np.array_equal(store.size[slots], sizes):
            self.fed.refresh_weights()

    # ------------------------------------------------------------------
    # Rebinding
    # ------------------------------------------------------------------
    def reset(self, algorithm) -> None:
        """Fresh-run state: empty carry store, period-0 cohort bound."""
        if self.fed is None:
            raise RuntimeError(
                "PopulationBinder has no federation; call "
                "build_federation() before running"
            )
        self.carry.clear()
        self._rebind(algorithm, self.draw(0), save_carry=False)

    def resample(
        self, algorithm, period: int, *, iteration: int = 0
    ) -> np.ndarray:
        """Draw period ``p``'s cohort and rebind the slot pool."""
        cohort = self._rebind(algorithm, self.draw(period), save_carry=True)
        tracer = get_tracer()
        if tracer.monitored:
            carried = len(self.carry)
            tracer.emit(
                "population_round",
                iteration=int(iteration),
                registered=self.shards.num_clients,
                cohort=int(cohort.size),
                materialized=int(cohort.size) + carried,
                carried=carried,
            )
        return cohort

    def _rebind(
        self, algorithm, cohort: np.ndarray, *, save_carry: bool
    ) -> np.ndarray:
        """Rebind every slot whose client left, all edges in one batch.

        Each edge owns a contiguous client-id range and keeps ``k``
        slots, so the freed slots in slot order and the sorted arrivals
        pair up edge by edge: each edge's arrivals land in its own freed
        slots, in sorted order.
        """
        current = self.slot_client
        slots = np.flatnonzero(~np.isin(current, cohort))
        if slots.size:
            arriving = np.setdiff1d(cohort, current)
            if save_carry:
                self._save_carry(algorithm, slots, current[slots])
            self._bind_clients(
                algorithm, slots, arriving, self.shards.shards(arriving)
            )
            current[slots] = arriving
        return cohort

    # ------------------------------------------------------------------
    # Checkpoint integration
    # ------------------------------------------------------------------
    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        """(manifest values, archive arrays) for the checkpoint."""
        carry_values, arrays = self.carry.state("pop:carry:")
        values: dict = {
            "slot_client": [int(c) for c in self.slot_client],
            "carry": carry_values,
        }
        return values, arrays

    def restore(
        self, algorithm, values: dict, arrays: dict[str, np.ndarray]
    ) -> None:
        """Rebuild slot bindings + carry store from a checkpoint.

        Runs after the algorithm's arrays are restored (the slot rows
        already hold the checkpointed cohort's state — binding must not
        disturb them, hence ``carry``-free rebinding) and *before* the
        federation's batch streams are restored (which then overwrite
        the freshly derived per-client streams with the exact
        checkpointed permutations and cursors).  The carry store slices
        its pools and tables out of ``arrays`` as views rather than
        copying them.  A ``pop:seen`` member (older checkpoints list the
        clients ever materialized) is not read: that count is derived.
        """
        self.carry.clear()
        target = np.asarray(values["slot_client"], dtype=np.int64)
        # Positional binding, not ``_rebind``: the checkpointed slot
        # layout is the product of the run's whole rebind history, which
        # a one-shot sorted-arrival reconstruction can permute.  The
        # carry store is empty so every bind takes the adopt path and
        # leaves the already-restored state rows untouched.
        slots = np.flatnonzero(self.slot_client != target)
        if slots.size:
            clients = target[slots]
            self._bind_clients(
                algorithm, slots, clients, self.shards.shards(clients)
            )
            self.slot_client[slots] = clients
        self.carry.restore(values["carry"], arrays, "pop:carry:")
