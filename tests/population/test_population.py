"""Virtual-population unit battery: registry, sampler, shards, binder.

The carry-forward property at the heart of the tentpole — a client
sampled at round ``r`` and again at round ``r + k`` resumes with
bit-identical momentum rows and mini-batch RNG state — is asserted
here against live algorithm runs via a recording binder subclass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedADC, FedNAG
from repro.core import HierAdMo
from repro.core.federation import Federation
from repro.checkpoint.state import rng_state, set_rng_state
from repro.data import Dataset
from repro.data.loader import SampleStore
from repro.data.shards import ListShards, PrototypeShards
from repro.monitoring import monitoring
from repro.nn.models import make_logistic_regression
from repro.population import ClientRegistry, CohortSampler, PopulationBinder
from repro.utils.memory import current_rss_bytes, peak_rss_bytes
from repro.utils.rng import child_seed, child_seeds, default_rng_states
from tests.integration.test_golden_trajectories import one_row_at_a_time

pytestmark = pytest.mark.population


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestClientRegistry:
    def test_contiguous_edge_blocks(self):
        registry = ClientRegistry(3, 5)
        assert registry.num_clients == 15
        assert registry.clients_of_edge(1) == range(5, 10)
        assert registry.edge_of(0) == 0
        assert registry.edge_of(7) == 1
        assert registry.edge_of(14) == 2

    def test_edge_out_of_range(self):
        with pytest.raises(IndexError):
            ClientRegistry(2, 4).clients_of_edge(2)

    def test_uniform_registry_stores_no_arrays(self):
        registry = ClientRegistry(2, 500_000)
        assert registry.num_clients == 1_000_000
        assert registry.weights is None
        np.testing.assert_array_equal(
            registry.client_weights([0, 999_999]), [1.0, 1.0]
        )

    def test_weights_validated(self):
        with pytest.raises(ValueError, match="shape"):
            ClientRegistry(2, 3, weights=np.ones(5))
        with pytest.raises(ValueError, match="positive"):
            ClientRegistry(2, 3, weights=np.zeros(6))

    def test_from_shards_equal_sizes_stay_uniform(self):
        shards = PrototypeShards(8, samples_per_client=16, seed=0)
        registry = ClientRegistry.from_shards(shards, 2)
        assert registry.weights is None

    def test_from_shards_uneven_sizes_become_weights(self):
        rng = np.random.default_rng(0)
        datasets = [
            Dataset(rng.normal(size=(n, 4)), rng.integers(0, 2, n), 2)
            for n in (8, 12, 8, 8)
        ]
        registry = ClientRegistry.from_shards(ListShards(datasets), 2)
        np.testing.assert_array_equal(
            registry.client_weights([0, 1, 2, 3]), [8, 12, 8, 8]
        )

    def test_from_shards_requires_even_split(self):
        shards = PrototypeShards(9, samples_per_client=8, seed=0)
        with pytest.raises(ValueError, match="evenly"):
            ClientRegistry.from_shards(shards, 2)


# ----------------------------------------------------------------------
# Cohort sampler
# ----------------------------------------------------------------------
class TestCohortSampler:
    def _sampler(self, clients_per_edge=100, cohort=8, edges=3, seed=4):
        registry = ClientRegistry(edges, clients_per_edge)
        return CohortSampler(registry, cohort, seed=seed)

    def test_draw_is_deterministic(self):
        sampler = self._sampler()
        np.testing.assert_array_equal(sampler.draw(7), sampler.draw(7))

    def test_draws_differ_across_periods(self):
        sampler = self._sampler()
        assert not np.array_equal(sampler.draw(0), sampler.draw(1))

    def test_blocks_are_stratified_and_sorted(self):
        sampler = self._sampler(clients_per_edge=50, cohort=5, edges=4)
        cohort = sampler.draw(3)
        assert cohort.size == 20
        for edge in range(4):
            block = cohort[edge * 5 : (edge + 1) * 5]
            assert np.all(np.diff(block) > 0)  # sorted, distinct
            assert block.min() >= edge * 50
            assert block.max() < (edge + 1) * 50

    def test_full_participation_identity_shortcut(self):
        sampler = self._sampler(clients_per_edge=6, cohort=6, edges=2)
        assert sampler.full_participation
        np.testing.assert_array_equal(sampler.draw(0), np.arange(12))
        np.testing.assert_array_equal(sampler.draw(99), np.arange(12))

    def test_cohort_clamped_to_edge_size(self):
        sampler = self._sampler(clients_per_edge=4, cohort=10, edges=2)
        assert sampler.cohort_per_edge == 4
        assert sampler.full_participation

    def test_partial_draw_cost_independent_of_population(self):
        """Floyd sampling touches O(k) values even at 1M clients."""
        sampler = self._sampler(clients_per_edge=500_000, cohort=64, edges=2)
        cohort = sampler.draw(0)
        assert cohort.size == 128
        assert np.unique(cohort).size == 128


# ----------------------------------------------------------------------
# Prototype shards
# ----------------------------------------------------------------------
class TestPrototypeShards:
    def test_shard_is_deterministic_and_shaped(self):
        shards = PrototypeShards(
            100, num_features=12, num_classes=4, samples_per_client=10, seed=3
        )
        first = shards.shard(42)
        again = shards.shard(42)
        np.testing.assert_array_equal(first.x, again.x)
        np.testing.assert_array_equal(first.y, again.y)
        assert first.x.shape == (10, 12)
        assert first.num_classes == 4

    def test_shards_differ_per_client(self):
        shards = PrototypeShards(10, samples_per_client=16, seed=3)
        assert not np.array_equal(shards.shard(0).x, shards.shard(1).x)

    def test_class_subset_restriction(self):
        shards = PrototypeShards(
            10, num_classes=10, classes_per_client=2,
            samples_per_client=32, seed=5,
        )
        for client in range(10):
            assert np.unique(shards.shard(client).y).size <= 2

    def test_test_set_deterministic(self):
        shards = PrototypeShards(10, samples_per_client=16, seed=3)
        np.testing.assert_array_equal(
            shards.test_set(64).x, shards.test_set(64).x
        )

    @pytest.mark.parametrize("classes_per_client", [None, 3])
    def test_batch_matches_per_client_reference(self, classes_per_client):
        shards = PrototypeShards(
            5000, num_features=7, num_classes=6, samples_per_client=9,
            classes_per_client=classes_per_client, seed=11,
        )
        clients = np.random.default_rng(2).choice(5000, size=40, replace=False)
        for client, shard in zip(clients, shards.shards(clients)):
            x, y = _reference_shard(shards, int(client))
            # Bit for bit, not just close.
            np.testing.assert_array_equal(
                shard.x.view(np.uint64), x.view(np.uint64)
            )
            np.testing.assert_array_equal(shard.y, y)
            assert shard.name == f"shard{client}"

    def test_out_of_range_client_refused(self):
        shards = PrototypeShards(10, samples_per_client=4, seed=0)
        with pytest.raises(IndexError, match="out of range"):
            shards.shards([3, 10])
        with pytest.raises(IndexError, match="out of range"):
            shards.shard(-1)


def _reference_shard(shards, client_id):
    """Client ``c``'s shard from its own freshly seeded generator."""
    rng = np.random.default_rng(child_seed(shards.seed, "shard", client_id))
    classes = np.arange(shards.num_classes)
    if shards.classes_per_client is not None:
        classes = rng.choice(
            shards.num_classes, size=shards.classes_per_client, replace=False
        )
    y = rng.choice(classes, size=shards.samples_per_client)
    x = shards.prototypes[y] + shards.noise * rng.normal(
        size=(shards.samples_per_client, shards.num_features)
    )
    return x, y


# ----------------------------------------------------------------------
# Binder mechanics
# ----------------------------------------------------------------------
def _make_binder(
    *, population=12, edges=2, cohort=3, seed=9, samples=20, shards=None
):
    shards = shards or PrototypeShards(
        population, num_features=24, num_classes=6,
        samples_per_client=samples, seed=seed,
    )
    registry = ClientRegistry.from_shards(shards, edges)
    binder = PopulationBinder(
        registry, shards, cohort_per_edge=cohort, seed=seed
    )
    model = make_logistic_regression(24, 6, rng=4)
    binder.build_federation(model, shards.test_set(80), batch_size=8)
    return binder


def test_build_federation_constructs_one_sample_store(monkeypatch):
    """The initial cohort's store is built once, at the provider's
    width, each slot on its client's stream.  It equals, bit for bit,
    the store a classic federation over the cohort would build, re-seeded
    to the cohort's streams and rebuilt at that width."""
    rng = np.random.default_rng(1)
    shards = ListShards(
        [
            Dataset(rng.normal(size=(n, 5)), rng.integers(0, 3, n), 3)
            for n in (9, 30, 4, 12, 7, 25, 11, 6, 40, 8, 10, 5)
        ]
    )
    binder = PopulationBinder(
        ClientRegistry.from_shards(shards, 2), shards,
        cohort_per_edge=2, seed=11,
    )
    built = []
    init = SampleStore.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SampleStore, "__init__", counted)
    test = Dataset(rng.normal(size=(8, 5)), rng.integers(0, 3, 8), 3)
    fed = binder.build_federation(
        make_logistic_regression(5, 3, rng=2), test, batch_size=8
    )
    assert built == [fed.store]
    monkeypatch.undo()

    cohort = binder.slot_client
    assert cohort.tolist() != list(range(cohort.size))
    datasets = list(shards.shards(cohort))
    classic = Federation(
        make_logistic_regression(5, 3, rng=2),
        [datasets[:2], datasets[2:]], test, batch_size=8, seed=11,
    )
    rngs = classic.store.rngs
    streams = child_seeds(11, "sampler", ids=cohort)
    for generator, state in zip(rngs, default_rng_states(streams)):
        set_rng_state(generator, state)
    want = SampleStore(datasets, 8, rngs, width=shards.max_shard_size)
    got = fed.store
    assert got.width == want.width == 40
    for name in ("x", "y", "order", "cursor", "size", "batch"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert [g.bit_generator.state for g in got.rngs] == [
        g.bit_generator.state for g in want.rngs
    ]


def _make_algorithm(cls, kwargs, **binder_kwargs):
    binder = _make_binder(**binder_kwargs)
    algorithm = cls(binder.fed, **kwargs)
    algorithm.attach_population(binder)
    return algorithm


class TestBinder:
    def test_reset_requires_federation(self):
        shards = PrototypeShards(8, samples_per_client=8, seed=0)
        binder = PopulationBinder(
            ClientRegistry.from_shards(shards, 2), shards,
            cohort_per_edge=2, seed=0,
        )
        with pytest.raises(RuntimeError, match="build_federation"):
            binder.reset(object())

    def test_federation_sized_by_cohort_not_population(self):
        binder = _make_binder(population=1000, edges=2, cohort=4, samples=4)
        assert isinstance(binder.fed, Federation)
        assert binder.fed.num_workers == 8
        assert binder.registry.num_clients == 1000

    def test_attach_population_rejects_foreign_federation(self):
        binder = _make_binder()
        other = _make_binder()
        algorithm = HierAdMo(other.fed, eta=0.05, tau=3, pi=2)
        with pytest.raises(ValueError, match="federation"):
            algorithm.attach_population(binder)

    def test_resample_every_defaults_to_tau(self):
        algorithm = _make_algorithm(HierAdMo, {"eta": 0.05, "tau": 3, "pi": 2})
        assert algorithm.population.resample_every == 3

    def test_full_participation_resample_is_identity(self):
        algorithm = _make_algorithm(
            HierAdMo, {"eta": 0.05, "tau": 3, "pi": 2},
            population=6, cohort=3,
        )
        binder = algorithm.population
        binder.reset(algorithm)
        store = binder.fed.store
        before = [store.x.copy(), store.order.copy(), store.cursor.copy()]
        states = [rng_state(rng) for rng in store.rngs]
        binder.resample(algorithm, 5)
        assert binder.fed.store is store
        for array, after in zip(before, (store.x, store.order, store.cursor)):
            np.testing.assert_array_equal(after, array)
        assert [rng_state(rng) for rng in store.rngs] == states
        np.testing.assert_array_equal(binder.slot_client, np.arange(6))
        assert binder.carry == {}

    def test_resample_emits_population_round_event(self):
        algorithm = _make_algorithm(FedNAG, {"eta": 0.05, "tau": 6})
        binder = algorithm.population
        algorithm._setup()
        binder.reset(algorithm)
        with monitoring() as monitor:
            binder.resample(algorithm, 1, iteration=6)
        registry = monitor.registry
        assert (
            registry.gauge("repro_population_registered")
            == binder.registry.num_clients
        )
        assert (
            registry.gauge("repro_population_cohort")
            == binder.sampler.cohort_size
        )
        assert registry.gauge("repro_population_materialized") >= 6

    def test_eval_events_carry_peak_rss(self):
        algorithm = _make_algorithm(FedNAG, {"eta": 0.05, "tau": 6})
        with monitoring() as monitor:
            algorithm.run(6, eval_every=6)
        assert (monitor.registry.gauge("repro_peak_rss_bytes") or 0) > 0

    def test_nonuniform_weights_refresh_on_rebind(self):
        rng = np.random.default_rng(0)
        datasets = [
            Dataset(rng.normal(size=(n, 6)), rng.integers(0, 3, n), 3)
            for n in (8, 12, 16, 8, 12, 16)
        ]
        shards = ListShards(datasets)
        registry = ClientRegistry.from_shards(shards, 2)
        assert registry.weights is not None
        binder = PopulationBinder(
            registry, shards, cohort_per_edge=2, seed=1
        )
        test = Dataset(
            rng.normal(size=(16, 6)), rng.integers(0, 3, 16), 3
        )
        model = make_logistic_regression(6, 3, rng=4)
        binder.build_federation(model, test, batch_size=4)
        algorithm = FedNAG(binder.fed, eta=0.05, tau=2)
        algorithm.attach_population(binder)
        algorithm._setup()
        binder.reset(algorithm)
        period = next(
            p for p in range(1, 50)
            if not np.array_equal(binder.sampler.draw(p), binder.slot_client)
        )
        binder.resample(algorithm, period)
        sizes = np.array(
            [len(d) for d in binder.fed.worker_datasets], dtype=np.float64
        )
        np.testing.assert_allclose(
            binder.fed.global_worker_w, sizes / sizes.sum()
        )


def _short_shard_algorithm() -> HierAdMo:
    """Shards of 40 and 5 samples at batch 16.  The seed-3 cohort starts
    on the four 5-sample shards, so every batch has 5 samples, and the
    first rebind brings in a 40-sample shard."""
    rng = np.random.default_rng(0)
    shards = ListShards(
        [
            Dataset(rng.normal(size=(n, 6)), rng.integers(0, 3, n), 3)
            for n in (40, 40, 5, 5, 40, 40, 5, 5)
        ]
    )
    binder = PopulationBinder(
        ClientRegistry.from_shards(shards, 2), shards,
        cohort_per_edge=2, seed=3,
    )
    test = Dataset(rng.normal(size=(16, 6)), rng.integers(0, 3, 16), 3)
    binder.build_federation(
        make_logistic_regression(6, 3, rng=4), test, batch_size=16
    )
    algorithm = HierAdMo(binder.fed, eta=0.05, tau=2, pi=2)
    algorithm.attach_population(binder)
    return algorithm


def test_rebind_to_mixed_batch_lengths_groups_rows_by_length():
    """Equal batch lengths are re-derived on every bind: after a rebind
    that mixes 5- and 16-sample batches, each iteration makes one
    program call per batch length, shortest first, and the run equals
    one driven row by row through ``Federation.gradient``, bit for bit."""
    algorithm = _short_shard_algorithm()
    assert algorithm.population.slot_client.tolist() == [2, 3, 6, 7]
    fed = algorithm.fed
    program, gradient_all = fed._engine, fed.gradient_all
    batches: list[int] = []
    iterations: list[tuple[list[int], list[int]]] = []

    def program_call(params, xs, ys, grads):
        batches.append(xs.shape[1])
        return type(program).gradient_all(program, params, xs, ys, grads)

    def iteration(params, *, rows=slice(None), out):
        batches.clear()
        losses = gradient_all(params, rows=rows, out=out)
        selected = np.arange(fed.num_workers)[rows]
        iterations.append((list(batches), fed.store.batch[selected].tolist()))
        return losses

    program.gradient_all = program_call
    fed.gradient_all = iteration
    history = algorithm.run(12, eval_every=4)
    for calls, lengths in iterations:
        assert calls == sorted(set(lengths))
    assert any(len(calls) == 2 for calls, _ in iterations)

    per_row = _short_shard_algorithm()
    one_row_at_a_time(per_row.fed)
    reference = per_row.run(12, eval_every=4)
    for series in ("test_accuracy", "test_loss", "train_loss"):
        np.testing.assert_array_equal(
            getattr(history, series), getattr(reference, series)
        )


# ----------------------------------------------------------------------
# Carry-forward bit-exactness (the tentpole property)
# ----------------------------------------------------------------------
def _slot_state(binder, algorithm, slot) -> tuple:
    """A slot's client state, read from the federation, not the carry
    store: its ``CLIENT_STATE`` rows and its batch stream."""
    rows = []
    for name in algorithm.CLIENT_STATE:
        obj, leaf = algorithm._ckpt_resolve(name)
        rows.append(getattr(obj, leaf)[slot].copy())
    store = binder.fed.store
    stream = {
        "rng": rng_state(store.rngs[slot]),
        "cursor": int(store.cursor[slot]),
        "order": store.order[slot, :store.size[slot]].copy(),
    }
    return rows, stream


class _RecordingBinder(PopulationBinder):
    """Snapshots a client's slot state when it departs and when it is
    bound again."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.saved: dict[int, tuple] = {}
        self.rebound: list[tuple] = []

    def _save_carry(self, algorithm, slots, clients):
        for slot, client_id in zip(slots.tolist(), clients.tolist()):
            self.saved[client_id] = _slot_state(self, algorithm, slot)
        super()._save_carry(algorithm, slots, clients)

    def _bind_clients(self, algorithm, slots, clients, datasets):
        returning = [client in self.carry for client in clients.tolist()]
        # Snapshot the *current* save records: a client may depart
        # again later and overwrite ``saved`` before the test asserts.
        expected = [self.saved.get(client) for client in clients.tolist()]
        super()._bind_clients(algorithm, slots, clients, datasets)
        for slot, client_id, back, saved in zip(
            slots.tolist(), clients.tolist(), returning, expected
        ):
            if back:
                self.rebound.append(
                    (client_id, *_slot_state(self, algorithm, slot), saved)
                )


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (HierAdMo, {"eta": 0.05, "tau": 3, "pi": 2}),
        (FedNAG, {"eta": 0.05, "tau": 6, "gamma": 0.5}),
        (FedADC, {"eta": 0.05, "tau": 6, "beta": 0.5}),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_returning_client_resumes_bit_identical_state(cls, kwargs):
    """A client sampled at round r and r+k gets back the exact momentum
    rows and mini-batch RNG state it left with — bit for bit."""
    shards = PrototypeShards(
        12, num_features=24, num_classes=6, samples_per_client=20, seed=9
    )
    registry = ClientRegistry.from_shards(shards, 2)
    binder = _RecordingBinder(
        registry, shards, cohort_per_edge=3, seed=9
    )
    model = make_logistic_regression(24, 6, rng=4)
    binder.build_federation(model, shards.test_set(80), batch_size=8)
    algorithm = cls(binder.fed, **kwargs)
    algorithm.attach_population(binder)
    algorithm.run(48, eval_every=48)

    assert binder.rebound, "no client ever returned; population too large"
    for client_id, rows, sampler, expected in binder.rebound:
        saved_rows, saved_sampler = expected
        assert len(rows) == len(algorithm.CLIENT_STATE)
        for row, saved in zip(rows, saved_rows):
            np.testing.assert_array_equal(row, saved)
        assert sampler["rng"] == saved_sampler["rng"]
        assert sampler["cursor"] == saved_sampler["cursor"]
        np.testing.assert_array_equal(
            sampler["order"], saved_sampler["order"]
        )


def test_fresh_client_adopts_broadcast_rows():
    """A never-seen client starts from the slot's current model row
    (== the post-round broadcast), like a SampledFedAvg participant."""
    algorithm = _make_algorithm(
        FedNAG, {"eta": 0.05, "tau": 6, "gamma": 0.5},
        population=40, cohort=2,
    )
    binder = algorithm.population
    algorithm._setup()
    binder.reset(algorithm)
    before = algorithm.x.copy()
    period = next(
        p for p in range(1, 50)
        if set(map(int, binder.sampler.draw(p)))
        - set(map(int, binder.slot_client))
        - set(binder.carry)
    )
    binder.resample(algorithm, period)
    np.testing.assert_array_equal(algorithm.x, before)


# ----------------------------------------------------------------------
# Memory helpers
# ----------------------------------------------------------------------
def test_rss_helpers_report_plausible_values():
    peak = peak_rss_bytes()
    current = current_rss_bytes()
    assert peak > 10 * 1024 * 1024  # a Python+NumPy process is > 10 MB
    if current:  # /proc may be absent off Linux
        assert peak >= current / 2
