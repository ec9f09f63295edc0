"""Virtual-federation equivalence batteries.

Three acceptance guarantees of the population layer:

* **Full participation is the identity** — a virtual federation whose
  cohort covers the whole registered population must reproduce every
  golden trajectory at rtol 1e-8, with the fleet run as one program
  call or one row at a time (same worker order, same derived sampler
  streams, zero rebinds);
* **The batched rebind is the per-client loop** — sampled runs through
  :class:`PopulationBinder` and the reference :class:`LoopBinder` end
  bit-identical;
* **Sampled cohorts survive crashes** — a cohort-sampled run that
  crashes mid-training and resumes from its last durable checkpoint
  reproduces the uninterrupted run bit for bit, carry store included.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import AsyncFedAvg, AsyncHierAdMo, FedADC, FedNAG
from repro.checkpoint import CheckpointManager
from repro.checkpoint.state import pack_rngs, set_rng_state
from repro.core import HierAdMo
from repro.data import (
    Dataset,
    make_synthetic_mnist,
    partition_xclass,
    train_test_split,
)
from repro.data.shards import ListShards, PrototypeShards
from repro.faults import FaultPlan, InjectedCrash
from repro.nn.models import make_logistic_regression
from repro.population import ClientRegistry, PopulationBinder
from repro.utils.rng import child_seed
from tests.data.sampler import BatchSampler
from tests.integration.test_golden_trajectories import (
    ALGORITHMS,
    EVAL_EVERY,
    TOTAL_ITERATIONS,
    PATHS,
    _load_goldens,
    one_row_at_a_time,
)

pytestmark = pytest.mark.population


def build_virtual_golden_algorithm(name: str, path: str = "batched"):
    """The goldens' federation rebuilt through the population layer.

    Same corpus, partitions, model and seeds as the classic
    ``build_federation`` in the golden battery — but the four workers
    are registered clients of a full-participation virtual federation.
    """
    corpus = make_synthetic_mnist(600, rng=11).flattened()
    train, test = train_test_split(corpus, 0.25, rng=12)
    parts = partition_xclass(train, 4, 3, rng=3)
    model = make_logistic_regression(train.num_features, 10, rng=4)
    shards = ListShards(parts)
    registry = ClientRegistry.from_shards(shards, 2)
    binder = PopulationBinder(registry, shards, cohort_per_edge=2, seed=5)
    federation = binder.build_federation(model, test, batch_size=16)
    if path == "loop":
        one_row_at_a_time(federation)
    cls, kwargs = ALGORITHMS[name]
    algorithm = cls(federation, **kwargs)
    algorithm.attach_population(binder)
    return algorithm


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_full_participation_matches_goldens(name, path):
    """Cohort == population reproduces all goldens at rtol 1e-8."""
    golden = _load_goldens()[name]
    algorithm = build_virtual_golden_algorithm(name, path)
    sampler = algorithm.population.sampler
    assert sampler.cohort_per_edge == sampler.registry.clients_per_edge
    history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)

    assert list(history.iterations) == golden["iterations"]
    assert math.isnan(history.train_loss[0])
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            getattr(history, series), golden[series], rtol=1e-8, atol=1e-10
        ), f"virtual {name}.{series} drifted from the golden"
    assert np.allclose(
        history.train_loss[1:],
        golden["train_loss"][1:],
        rtol=1e-8,
        atol=1e-10,
    ), f"virtual {name}.train_loss drifted from the golden"
    fresh_trace = [
        [trace[edge] for edge in sorted(trace)]
        for trace in history.gamma_trace
    ]
    assert len(fresh_trace) == len(golden["gamma_trace"])
    for fresh_round, golden_round in zip(
        fresh_trace, golden["gamma_trace"]
    ):
        assert np.allclose(
            fresh_round, golden_round, rtol=1e-8, atol=1e-10
        ), f"virtual {name} gamma trace drifted from the golden"


def test_full_participation_never_rebinds():
    """At full participation the slot pool is static: no carry records,
    no sampler churn — the virtual layer costs nothing per round."""
    algorithm = build_virtual_golden_algorithm("FedAvg")
    binder = algorithm.population
    algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    assert binder.carry == {}
    np.testing.assert_array_equal(binder.slot_client, np.arange(4))


# ----------------------------------------------------------------------
# Sampled-cohort crash/resume
# ----------------------------------------------------------------------
SAMPLED_CASES = {
    "HierAdMo": (HierAdMo, {"eta": 0.05, "tau": 3, "pi": 2}),
    "FedNAG": (FedNAG, {"eta": 0.05, "tau": 6, "gamma": 0.5}),
    "FedADC": (FedADC, {"eta": 0.05, "tau": 6, "beta": 0.5}),
}

ASYNC_SAMPLED_CASES = {
    "AsyncHierAdMo": (AsyncHierAdMo, {"eta": 0.05, "tau": 3, "pi": 2}),
    "AsyncFedAvg": (AsyncFedAvg, {"eta": 0.05, "tau": 6}),
}


def assert_row_is_sampler(store, row, sampler) -> None:
    """The store row holds the sampler's data, permutation, cursor and
    generator state."""
    size = len(sampler.dataset)
    assert store.size[row] == size
    assert store.cursor[row] == sampler._cursor
    np.testing.assert_array_equal(store.order[row, :size], sampler._order)
    np.testing.assert_array_equal(store.x[row, :size], sampler.dataset.x)
    np.testing.assert_array_equal(store.y[row, :size], sampler.dataset.y)
    assert store.rngs[row].bit_generator.state == sampler.rng.bit_generator.state


class LoopBinder(PopulationBinder):
    """Reference rebind: edge by edge and client by client.

    Each departing client is stored on its own, and each arriving client
    gets its own shard, its own store bind and a generator seeded by
    ``default_rng`` — the per-client loop the batched rebind must
    reproduce bit for bit.  An independent :class:`BatchSampler` per
    arriving client, given the same stream (or carried state), must
    hold what the client's store row holds.
    """

    def _rebind(self, algorithm, cohort, *, save_carry):
        current = self.slot_client
        k = self.sampler.cohort_per_edge
        store = self.fed.store
        arrays = self._carried(algorithm)
        rebound = False
        for edge in range(self.registry.num_edges):
            old = current[edge * k:(edge + 1) * k].tolist()
            new = cohort[edge * k:(edge + 1) * k].tolist()
            free = [edge * k + i for i, c in enumerate(old) if c not in new]
            arriving = sorted(set(new) - set(old))
            rebound = rebound or bool(arriving)
            for slot in free if save_carry else ():
                self.carry.extend(
                    [current[slot]], arrays, [slot],
                    pack_rngs([store.rngs[slot]])[0][None],
                )
            for slot, client in zip(free, arriving):
                (dataset,) = self.shards.shards([client])
                seed = child_seed(self.seed, "sampler", client)
                sampler = BatchSampler(
                    dataset, self.fed.batch_size, np.random.default_rng(seed)
                )
                store.rngs[slot] = np.random.default_rng(seed)
                store.bind([slot], [dataset])
                record = self.carry.pop(client)
                if record is not None:
                    for array, row in zip(arrays, record["rows"]):
                        array[slot] = row
                    set_rng_state(store.rngs[slot], record["rng"])
                    set_rng_state(sampler.rng, record["rng"])
                    sampler._order = record["rows"][-2][:len(dataset)]
                    sampler._cursor = int(record["rows"][-1])
                assert_row_is_sampler(store, slot, sampler)
                current[slot] = client
                self._seen.add(client)
        if rebound and self.registry.weights is not None:
            self.fed.refresh_weights()
        return cohort


def make_sampled_algorithm(
    cls, kwargs, *, uneven=False, binder_cls=PopulationBinder
):
    """Fresh 64-client federation, cohort 3 per edge (rebinds happen).

    ``uneven`` keeps 24 clients (so carried clients return often) and
    cuts their shards to 8, 12 or 16 samples, so their permutations
    (and aggregation weights) differ in length.
    """
    shards = PrototypeShards(
        64, num_features=24, num_classes=6, samples_per_client=20, seed=9
    )
    test_set = shards.test_set(80)
    if uneven:
        shards = ListShards(
            [
                Dataset(shard.x[:size], shard.y[:size], shard.num_classes)
                for shard, size in zip(
                    shards.shards(range(24)), [8, 12, 16] * 8
                )
            ]
        )
    registry = ClientRegistry.from_shards(shards, 2)
    binder = binder_cls(registry, shards, cohort_per_edge=3, seed=9)
    model = make_logistic_regression(24, 6, rng=4)
    binder.build_federation(model, test_set, batch_size=8)
    algorithm = cls(binder.fed, **kwargs)
    algorithm.attach_population(binder)
    return algorithm


def assert_histories_match(golden, resumed):
    assert list(resumed.iterations) == list(golden.iterations)
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            getattr(resumed, series),
            getattr(golden, series),
            rtol=1e-8,
            atol=1e-10,
        ), f"{series} drifted after resume"
    assert np.allclose(
        resumed.train_loss[1:],
        golden.train_loss[1:],
        rtol=1e-8,
        atol=1e-10,
    )
    assert resumed.gamma_trace == golden.gamma_trace


def assert_same_carry(store, expected):
    assert sorted(store) == sorted(expected)
    for client_id, record in expected.items():
        other = store[client_id]
        assert len(record["rows"]) == len(other["rows"])
        for row, other_row in zip(record["rows"], other["rows"]):
            np.testing.assert_array_equal(row, other_row)
        assert record["rng"] == other["rng"]


@pytest.mark.parametrize(
    "name", sorted(SAMPLED_CASES) + ["HierAdMo-uneven"]
)
def test_batched_rebind_matches_per_client_loop(name):
    """The batched rebind and the per-client reference loop leave the
    same trajectory, slot pool, carry store and sampler streams."""
    cls, kwargs = SAMPLED_CASES[name.removesuffix("-uneven")]
    uneven = name.endswith("-uneven")
    runs = []
    for binder_cls in (PopulationBinder, LoopBinder):
        algorithm = make_sampled_algorithm(
            cls, kwargs, uneven=uneven, binder_cls=binder_cls
        )
        history = algorithm.run(36, eval_every=6)
        runs.append((algorithm, history))
    (batched, batched_history), (loop, loop_history) = runs
    assert batched_history.test_loss == loop_history.test_loss
    assert batched_history.train_loss[1:] == loop_history.train_loss[1:]
    for key, array in loop.checkpoint_arrays().items():
        np.testing.assert_array_equal(batched.checkpoint_arrays()[key], array)
    np.testing.assert_array_equal(
        batched.population.slot_client, loop.population.slot_client
    )
    assert batched.population._seen == loop.population._seen
    assert len(loop.population.carry) > 0
    assert_same_carry(batched.population.carry, loop.population.carry)
    store, other = batched.fed.store, loop.fed.store
    for name in ("x", "y", "order", "cursor", "size", "batch"):
        np.testing.assert_array_equal(getattr(store, name), getattr(other, name))
    assert [rng.bit_generator.state for rng in store.rngs] == [
        rng.bit_generator.state for rng in other.rngs
    ]


@pytest.mark.checkpoint
@pytest.mark.parametrize("name", sorted(SAMPLED_CASES))
def test_sampled_cohort_crash_resume_is_bit_exact(name, tmp_path):
    cls, kwargs = SAMPLED_CASES[name]
    golden = make_sampled_algorithm(cls, kwargs).run(24, eval_every=6)

    crashing = make_sampled_algorithm(cls, kwargs)
    crashing.attach_faults(
        replace(FaultPlan(), crash_iterations=(17,))
    )
    manager = CheckpointManager(tmp_path, every=5)
    with pytest.raises(InjectedCrash):
        crashing.run(24, eval_every=6, checkpoints=manager)

    restored = manager.load_latest()
    assert restored is not None
    resumed = make_sampled_algorithm(cls, kwargs)
    history = resumed.run(24, eval_every=6, resume_from=restored)
    assert_histories_match(golden, history)


@pytest.mark.checkpoint
@pytest.mark.parametrize(
    "name", sorted(SAMPLED_CASES) + ["HierAdMo-uneven"]
)
def test_sampled_resume_restores_binder_state(name, tmp_path):
    """Uninterrupted and crash-resumed runs end with identical slot
    pools and carry stores, not just identical histories.  The uneven
    case carries permutations of different lengths through the
    checkpoint."""
    cls, kwargs = SAMPLED_CASES[name.removesuffix("-uneven")]
    uneven = name.endswith("-uneven")
    golden_algorithm = make_sampled_algorithm(cls, kwargs, uneven=uneven)
    golden_algorithm.run(24, eval_every=6)

    crashing = make_sampled_algorithm(cls, kwargs, uneven=uneven)
    crashing.attach_faults(
        replace(FaultPlan(), crash_iterations=(17,))
    )
    manager = CheckpointManager(tmp_path, every=5)
    with pytest.raises(InjectedCrash):
        crashing.run(24, eval_every=6, checkpoints=manager)
    restored = manager.load_latest()
    assert restored.manifest["population"]["carry"]["entries"] > 0
    resumed = make_sampled_algorithm(cls, kwargs, uneven=uneven)
    resumed.run(24, eval_every=6, resume_from=restored)

    golden_binder = golden_algorithm.population
    resumed_binder = resumed.population
    np.testing.assert_array_equal(
        resumed_binder.slot_client, golden_binder.slot_client
    )
    assert_same_carry(resumed_binder.carry, golden_binder.carry)
    sizes = set()
    for client_id, record in golden_binder.carry.items():
        size = golden_binder.shards.shard_size(client_id)
        order = record["rows"][-2]
        np.testing.assert_array_equal(np.sort(order[:size]), np.arange(size))
        assert not order[size:].any()
        sizes.add(size)
    assert len(sizes) == (3 if uneven else 1)


@pytest.mark.eventsim
@pytest.mark.parametrize("name", sorted(ASYNC_SAMPLED_CASES))
def test_async_sampled_cohort_runs_and_is_deterministic(name):
    """The async engine resamples at its round barrier: two identical
    runs agree bit for bit and materialize beyond the initial cohort."""
    cls, kwargs = ASYNC_SAMPLED_CASES[name]
    first = make_sampled_algorithm(cls, kwargs)
    first_history = first.run(24, eval_every=6)
    second = make_sampled_algorithm(cls, kwargs)
    second_history = second.run(24, eval_every=6)
    assert first_history.test_loss == second_history.test_loss
    assert first_history.test_accuracy == second_history.test_accuracy
    np.testing.assert_array_equal(
        first.population.slot_client, second.population.slot_client
    )
    assert len(first.population._seen) > first.population.sampler.cohort_size
