"""Columnar carry store: Mapping semantics, swap-with-last, snapshots.

The oracle is a plain dict of records kept alongside the store: every
add/pop sequence (small blocks, so entries move across block
boundaries, and permutations of different lengths) must leave the two
holding the same records, also after a checkpoint round trip.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.checkpoint.state import pack_rng, unpack_rng
from repro.core import HierAdMo
from repro.data.shards import PrototypeShards
from repro.nn.models import make_logistic_regression
from repro.population import ClientRegistry, PopulationBinder
from repro.population.carry import CarryStore

pytestmark = pytest.mark.population


def _entry(rng, client_id):
    """A departing client's (rows, packed rng, cursor, order)."""
    generator = np.random.default_rng(client_id)
    generator.random(int(rng.integers(0, 5)))
    order = generator.permutation(int(rng.choice([3, 5, 8])))
    rows = [rng.normal(size=4), rng.normal(size=(2, 3)), rng.random() < 0.5]
    return rows, pack_rng(generator), int(rng.integers(0, order.size)), order


def _record(rows, rng, cursor, order):
    return {
        "rows": [np.array(row) for row in rows],
        "sampler": {"rng": unpack_rng(rng), "cursor": cursor, "order": order},
    }


def assert_same(store: CarryStore, oracle: dict) -> None:
    assert len(store) == len(oracle)
    assert set(store) == set(oracle)
    for client_id, expected in oracle.items():
        assert client_id in store
        record = store[client_id]
        for row, want in zip(record["rows"], expected["rows"]):
            np.testing.assert_array_equal(row, want)
        assert record["sampler"]["rng"] == expected["sampler"]["rng"]
        assert record["sampler"]["cursor"] == expected["sampler"]["cursor"]
        np.testing.assert_array_equal(
            record["sampler"]["order"], expected["sampler"]["order"]
        )


def _churn(store, oracle, rng, steps):
    for _ in range(steps):
        if oracle and rng.random() < 0.45:
            client_id = int(rng.choice(sorted(oracle)))
            record = store.pop(client_id)
            expected = oracle.pop(client_id)
            np.testing.assert_array_equal(
                record["sampler"]["order"], expected["sampler"]["order"]
            )
        else:
            # Batches of distinct ids, up to a block and more; ids repeat
            # across batches, so some entries replace a stored one.
            size = int(rng.integers(1, 6))
            clients = rng.choice(60, size=size, replace=False)
            entries = [_entry(rng, client_id) for client_id in clients]
            rows, rngs, cursors, orders = zip(*entries)
            store.extend(
                clients,
                [np.array(column) for column in zip(*rows)],
                np.arange(clients.size),
                np.array(rngs),
                list(cursors),
                list(orders),
            )
            for client_id, entry in zip(clients.tolist(), entries):
                oracle[client_id] = _record(*entry)


def test_random_churn_matches_dict_oracle():
    rng = np.random.default_rng(0)
    store, oracle = CarryStore(block=4), {}
    for _ in range(8):
        _churn(store, oracle, rng, 25)
        assert_same(store, oracle)
    assert store.pop(10_000) is None


def test_snapshot_roundtrip_then_keeps_working(tmp_path):
    rng = np.random.default_rng(1)
    store, oracle = CarryStore(block=3), {}
    _churn(store, oracle, rng, 50)
    # Several blocks, the last one partly used.
    assert len(oracle) > 6 and len(oracle) % 3
    values, arrays = store.state("carry:")
    write_checkpoint(tmp_path, 1, {"carry": values}, arrays)
    manifest, loaded = read_checkpoint(tmp_path / "ckpt-00000001.npz")

    restored = CarryStore()
    restored.restore(manifest["carry"], loaded, "carry:")
    assert restored.block == 3
    assert_same(restored, oracle)
    _churn(restored, oracle, rng, 60)
    assert_same(restored, oracle)


def test_empty_store_is_an_empty_mapping():
    store = CarryStore()
    assert store == {}
    values, arrays = store.state("carry:")
    assert arrays == {}
    restored = CarryStore()
    restored.restore(values, arrays, "carry:")
    assert len(restored) == 0


def _binder_with_carry(carried: int):
    shards = PrototypeShards(
        12, num_features=24, num_classes=6, samples_per_client=20, seed=9
    )
    binder = PopulationBinder(
        ClientRegistry.from_shards(shards, 2), shards,
        cohort_per_edge=3, seed=9,
    )
    binder.build_federation(
        make_logistic_regression(24, 6, rng=4), shards.test_set(80),
        batch_size=8,
    )
    algorithm = HierAdMo(binder.fed, eta=0.05, tau=3, pi=2)
    algorithm.attach_population(binder)
    algorithm._setup()
    binder.reset(algorithm)
    clients = np.arange(100, 100 + carried)
    binder._save_carry(algorithm, clients % binder.fed.num_workers, clients)
    return binder


def test_checkpoint_members_do_not_grow_with_carried_clients(tmp_path):
    counts = []
    for carried in (10, 900):
        binder = _binder_with_carry(carried)
        assert len(binder.carry) == carried
        values, arrays = binder.state()
        path = write_checkpoint(
            tmp_path / str(carried), 1, {"population": values}, arrays
        )
        with zipfile.ZipFile(path) as archive:
            counts.append(len(archive.namelist()))
    assert counts[0] == counts[1]
