"""Lazy cohort materialization into the stacked worker buffers.

The :class:`PopulationBinder` is the bridge between a virtual
:class:`~repro.population.registry.ClientRegistry` (metadata only) and
the live :class:`~repro.core.federation.Federation` an algorithm
actually trains: the federation's ``(W, dim)`` stacked state holds one
*slot* per cohort member, and the binder maps slots to client ids,
rebinding them as the :class:`~repro.population.sampling.CohortSampler`
draws new cohorts.

Slot-pool lifecycle (per edge block, each rebind period):

* **retained** clients — sampled again — keep their slot untouched:
  state rows, sample-store row, everything stays in place (the
  LRU-ish fast path; at full participation every client is retained and
  a virtual run is bit-identical to a classic federation);
* **departing** clients save a compact carry-forward record into the
  columnar :class:`~repro.population.carry.CarryStore`: the rows of the
  algorithm's declared ``CLIENT_STATE`` arrays (its per-client
  momentum/optimizer buffers), its store row's permutation and cursor,
  and its generator state.  The model row ``x`` is deliberately *not*
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

Per-client mini-batch streams are keyed by **client id**, not slot:
client ``c`` always samples from ``child_seed(seed, "sampler", c)``,
the stream a fully materialized federation would give worker ``c`` —
this identity is what makes full-participation virtual runs reproduce
the golden trajectories.

A rebind handles the whole slot pool as one batch: one set difference
finds every edge's departures and arrivals, the departures enter the
carry store in one :meth:`~repro.population.carry.CarryStore.extend`,
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
from repro.population.registry import ClientRegistry
from repro.population.sampling import CohortSampler
from repro.telemetry import get_tracer
from repro.utils.rng import child_seeds, default_rng_states

__all__ = ["PopulationBinder"]


class PopulationBinder:
    """Slot pool binding a sampled cohort into a federation's buffers."""

    def __init__(
        self,
        registry: ClientRegistry,
        shards,
        *,
        cohort_per_edge: int,
        seed: int = 0,
        resample_every: int | None = None,
    ):
        self.registry = registry
        self.shards = shards
        self.sampler = CohortSampler(
            registry, cohort_per_edge, seed=seed
        )
        self.seed = int(seed)
        # Rebind cadence in iterations; ``None`` until attached (the
        # algorithm's round length τ is the natural default).
        self.resample_every = resample_every
        self.fed: Federation | None = None
        # slot -> client id for the currently materialized cohort.
        self.slot_client: np.ndarray | None = None
        # Evicted clients' state in columnar tables; ``carry[client_id]``
        # reads back {"rows": [one row per ``_carried`` array],
        #  "rng": generator state}.
        self.carry = CarryStore()
        # Distinct clients ever materialized (reported by the
        # ``population_round`` event only).
        self._seen: set[int] = set()

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
        cohort = self.sampler.draw(0)
        k = self.sampler.cohort_per_edge
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
                for e in range(self.registry.num_edges)
            ],
            test_set,
            batch_size=batch_size,
            store=store,
        )
        self.fed = fed
        self.slot_client = cohort.copy()
        self._seen.update(cohort.tolist())
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
        returning clients then get their carried rows back.
        """
        store = self.fed.store
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
        self._seen.update(clients.tolist())
        if self.registry.weights is not None:
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
        self._rebind(algorithm, self.sampler.draw(0), save_carry=False)

    def resample(
        self, algorithm, period: int, *, iteration: int = 0
    ) -> np.ndarray:
        """Draw period ``p``'s cohort and rebind the slot pool."""
        cohort = self._rebind(
            algorithm, self.sampler.draw(period), save_carry=True
        )
        tracer = get_tracer()
        if tracer.monitored:
            tracer.emit(
                "population_round",
                iteration=int(iteration),
                registered=self.registry.num_clients,
                cohort=int(cohort.size),
                materialized=len(self._seen),
                carried=len(self.carry),
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
        arrays["pop:seen"] = np.fromiter(
            sorted(self._seen), dtype=np.int64, count=len(self._seen)
        )
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
        checkpointed permutations and cursors).  The carry store adopts
        its tables from ``arrays`` rather than copying them.
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
        self._seen = set(arrays["pop:seen"].tolist())
        self._seen.update(target.tolist())
        self.carry.restore(values["carry"], arrays, "pop:carry:")
