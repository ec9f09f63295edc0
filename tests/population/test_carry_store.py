"""Columnar carry store: Mapping semantics, swap-with-last, snapshots.

The oracle is a plain dict of records kept alongside the store: every
add/pop sequence (small blocks, so entries move across block
boundaries, and permutations of different lengths padded to one width)
must leave the two holding the same records, also after a checkpoint
round trip.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.checkpoint import CheckpointError, CheckpointManager
from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.checkpoint.manager import load_resume
from repro.checkpoint.state import pack_rngs, unpack_rng
from repro.core import HierAdMo
from repro.data.shards import PrototypeShards
from repro.nn.models import make_logistic_regression
from repro.population import ClientRegistry, PopulationBinder
from repro.population.carry import CarryStore
from tests.population.test_virtual_equivalence import (
    SAMPLED_CASES,
    make_sampled_algorithm,
)

pytestmark = pytest.mark.population


WIDTH = 8


def _entry(rng, client_id):
    """A departing client's (rows, packed rng): two state rows, a flag,
    then its permutation padded to ``WIDTH`` and its cursor."""
    generator = np.random.default_rng(client_id)
    generator.random(int(rng.integers(0, 5)))
    size = int(rng.choice([3, 5, WIDTH]))
    order = np.zeros(WIDTH, dtype=np.int64)
    order[:size] = generator.permutation(size)
    rows = [
        rng.normal(size=4), rng.normal(size=(2, 3)), rng.random() < 0.5,
        order, np.int64(rng.integers(0, size)),
    ]
    return rows, pack_rngs([generator])[0]


def _record(rows, rng):
    return {"rows": [np.array(row) for row in rows], "rng": unpack_rng(rng)}


def assert_same(store: CarryStore, oracle: dict) -> None:
    assert len(store) == len(oracle)
    assert set(store) == set(oracle)
    for client_id, expected in oracle.items():
        assert client_id in store
        record = store[client_id]
        assert len(record["rows"]) == len(expected["rows"])
        for row, want in zip(record["rows"], expected["rows"]):
            np.testing.assert_array_equal(row, want)
        assert record["rng"] == expected["rng"]


def _churn(store, oracle, rng, steps):
    for _ in range(steps):
        if oracle and rng.random() < 0.45:
            client_id = int(rng.choice(sorted(oracle)))
            record = store.pop(client_id)
            expected = oracle.pop(client_id)
            for row, want in zip(record["rows"], expected["rows"]):
                np.testing.assert_array_equal(row, want)
            assert record["rng"] == expected["rng"]
        else:
            # Batches of distinct ids, up to a block and more; ids repeat
            # across batches, so some entries replace a stored one.
            size = int(rng.integers(1, 6))
            clients = rng.choice(60, size=size, replace=False)
            entries = [_entry(rng, client_id) for client_id in clients]
            rows, rngs = zip(*entries)
            store.extend(
                clients,
                [np.array(column) for column in zip(*rows)],
                np.arange(clients.size),
                np.array(rngs),
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


def test_old_population_checkpoint_rejected(tmp_path):
    """A sampled-population checkpoint whose carry blocks keep sampler
    cursors and concatenated permutations as their own members (the
    ragged format) is refused, not misread."""
    cls, kwargs = SAMPLED_CASES["HierAdMo"]
    manager = CheckpointManager(tmp_path / "run", every=6)
    make_sampled_algorithm(cls, kwargs).run(
        12, eval_every=6, checkpoints=manager
    )
    manifest, arrays = read_checkpoint(manager.load_latest().path)
    carry = manifest["population"]["carry"]
    assert carry["entries"] > 0
    rows = carry["rows"] - 2
    for block in range(-(-carry["entries"] // carry["block"])):
        key = f"pop:carry:{block}:"
        orders = arrays.pop(f"{key}row{rows}")
        arrays[key + "cursor"] = arrays.pop(f"{key}row{rows + 1}")
        arrays[key + "order"] = orders.ravel()
        arrays[key + "offsets"] = np.arange(len(orders) + 1) * orders.shape[1]
    carry["rows"] = rows
    path = write_checkpoint(
        tmp_path / "old", manifest["iteration"], manifest, arrays
    )
    with pytest.raises(CheckpointError, match="carry format"):
        make_sampled_algorithm(cls, kwargs).run(
            18, eval_every=6, resume_from=load_resume(path)
        )
