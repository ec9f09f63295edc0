"""Carry store: Mapping semantics, pools of distinct rows, snapshots.

The oracle is a plain dict of records kept alongside the store: every
extend/pop sequence must leave the two holding the same records, byte
for byte, also across checkpoint round trips in mid-churn.  Departing
batches mix many copies of one broadcast row, all-zero rows, +0.0 and
-0.0 rows, two NaN payloads and fresh rows, in 8-, 4- and 1-byte
columns, beside permutations padded to one width.  After every step the
store must hold no more than twice the row bytes of a dense table of
its live entries.
"""

from __future__ import annotations

import tracemalloc
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
from repro.population import PopulationBinder
from repro.population import carry
from repro.population.carry import CarryStore
from tests.population.test_virtual_equivalence import (
    SAMPLED_CASES,
    make_sampled_algorithm,
)

pytestmark = pytest.mark.population


WIDTH = 8
# Carried columns of the churn: two float64 state arrays, a float32
# one, a flag, then the padded permutation and its cursor.
STATE_SHAPES = ((4, np.float64), ((2, 3), np.float64), (3, np.float32))
COLUMNS = len(STATE_SHAPES) + 3
ENTRY_BYTES = 4 * 8 + 6 * 8 + 3 * 4 + 1 + WIDTH * 8 + 8
# Members of a non-empty snapshot: client, rng, offsets, pool_offsets,
# and a pool and a ref per column.
MEMBERS = 4 + 2 * COLUMNS


def _nan(payload: int, dtype) -> np.ndarray:
    words = np.uint64 if np.dtype(dtype).itemsize == 8 else np.uint32
    return np.array(payload, dtype=words).view(dtype)


def _specials(shape, dtype) -> list[np.ndarray]:
    """All-zero, all -0.0, one -0.0 among zeros, and two NaN payloads."""
    big = np.dtype(dtype).itemsize == 8
    one_negative = np.zeros(shape, dtype)
    one_negative.flat[-1] = -0.0
    return [
        np.zeros(shape, dtype),
        np.full(shape, -0.0, dtype),
        one_negative,
        np.full(shape, _nan(0x7FF8000000000001 if big else 0x7FC00001, dtype)),
        np.full(shape, _nan(0xFFF8000000000002 if big else 0xFFC00002, dtype)),
    ]


def _state_row(rng, broadcast, shape, dtype):
    draw = rng.random()
    if draw < 0.4:
        return broadcast.copy()
    if draw < 0.75:
        specials = _specials(shape, dtype)
        return specials[int(rng.integers(len(specials)))]
    return rng.normal(size=shape).astype(dtype)


def _batch(rng, clients):
    """A departing batch: ``(columns, packed rngs)`` with one row per
    client in each column, most of the state rows shared."""
    broadcasts = [rng.normal(size=shape).astype(dtype) for shape, dtype in STATE_SHAPES]
    rows, rngs = [], []
    for client_id in clients.tolist():
        generator = np.random.default_rng(client_id)
        generator.random(int(rng.integers(0, 5)))
        size = int(rng.choice([3, 5, WIDTH]))
        order = np.zeros(WIDTH, dtype=np.int64)
        order[:size] = generator.permutation(size)
        state = [
            _state_row(rng, broadcast, shape, dtype)
            for broadcast, (shape, dtype) in zip(broadcasts, STATE_SHAPES)
        ]
        rows.append(
            state + [np.bool_(rng.random() < 0.5), order,
                     np.int64(rng.integers(0, size))]
        )
        rngs.append(pack_rngs([generator])[0])
    columns = [np.array(column) for column in zip(*rows)]
    return columns, np.array(rngs)


def assert_bits(row, want) -> None:
    row, want = np.asarray(row), np.asarray(want)
    assert row.dtype == want.dtype and row.shape == want.shape
    assert row.tobytes() == want.tobytes()


def assert_record(record, expected) -> None:
    assert len(record["rows"]) == len(expected["rows"])
    for row, want in zip(record["rows"], expected["rows"]):
        assert_bits(row, want)
    assert record["rng"] == expected["rng"]


def assert_same(store: CarryStore, oracle: dict) -> None:
    assert len(store) == len(oracle)
    assert set(store) == set(oracle)
    for client_id, expected in oracle.items():
        assert client_id in store
        assert_record(store[client_id], expected)


def assert_within_dense(store: CarryStore, entry_bytes: int = ENTRY_BYTES):
    """The pools hold at most twice the rows of a dense table of the
    live entries, and nothing once the store is empty."""
    assert store.row_bytes <= 2 * len(store) * entry_bytes
    if not len(store):
        assert store.row_bytes == 0


def _extend(store, oracle, rng, clients):
    columns, rngs = _batch(rng, clients)
    store.extend(clients, columns, np.arange(clients.size), rngs)
    for index, client_id in enumerate(clients.tolist()):
        oracle[client_id] = {
            "rows": [np.array(column[index]) for column in columns],
            "rng": unpack_rng(rngs[index]),
        }


def _roundtrip(store, path, iteration=1) -> CarryStore:
    values, arrays = store.state("carry:")
    if len(store):
        assert len(arrays) == MEMBERS
    write_checkpoint(path, iteration, {"carry": values}, arrays)
    manifest, loaded = read_checkpoint(path / f"ckpt-{iteration:08d}.npz")
    restored = CarryStore()
    restored.restore(manifest["carry"], loaded, "carry:")
    return restored


def _churn(store, oracle, rng, steps, *, path=None):
    """Random pops and batches; with ``path``, the store also goes
    through a checkpoint now and then and the churn goes on with the
    restored one.  Returns the store in use at the end."""
    for step in range(steps):
        if path is not None and step % 17 == 16:
            store = _roundtrip(store, path, step)
            assert_same(store, oracle)
        elif oracle and rng.random() < 0.45:
            client_id = int(rng.choice(sorted(oracle)))
            assert_record(store.pop(client_id), oracle.pop(client_id))
        else:
            # Batches of distinct ids; ids repeat across batches, so some
            # entries replace a stored one.
            size = int(rng.integers(1, 13))
            _extend(store, oracle, rng, rng.choice(80, size=size, replace=False))
        assert_within_dense(store)
    return store


def test_random_churn_matches_dict_oracle(tmp_path):
    rng = np.random.default_rng(0)
    store, oracle = CarryStore(), {}
    for _ in range(8):
        store = _churn(store, oracle, rng, 40, path=tmp_path)
        assert_same(store, oracle)
    assert store.pop(10_000) is None
    while oracle:
        client_id = next(iter(oracle))
        assert_record(store.pop(client_id), oracle.pop(client_id))
        assert_within_dense(store)
    assert store.row_bytes == 0 and not store._batches


def test_snapshot_roundtrip_then_keeps_working(tmp_path):
    rng = np.random.default_rng(1)
    store, oracle = CarryStore(), {}
    store = _churn(store, oracle, rng, 50)
    assert len(store._batches) > 3
    restored = _roundtrip(store, tmp_path)
    assert_same(restored, oracle)
    assert restored.row_bytes <= store.row_bytes
    restored = _churn(restored, oracle, rng, 60, path=tmp_path)
    assert_same(restored, oracle)


def test_broadcast_copies_share_one_row():
    """512 departing clients holding one broadcast row and zeroed
    accumulators keep two rows, in smaller allocations: the pools, not
    untouched pages, are what the store saves."""
    dim, clients = 330, 512
    momentum = np.tile(np.random.default_rng(2).normal(size=dim), (clients, 1))
    zeros = np.zeros((clients, dim))
    rngs = pack_rngs([np.random.default_rng(c) for c in range(clients)])
    store = CarryStore()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store.extend(np.arange(clients), [momentum, zeros], np.arange(clients), rngs)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert store.row_bytes == 2 * dim * 8
    dense = 2 * clients * dim * 8
    assert held < dense / 10
    record = store[17]
    assert_bits(record["rows"][0], momentum[17])
    assert_bits(record["rows"][1], zeros[0])


def test_signed_zeros_and_nan_payloads_stay_apart():
    """Equal as floats is not equal as bytes: +0.0/-0.0 and two NaN
    payloads are five pool rows, in 8-byte and narrower columns."""
    columns = []
    for shape, dtype in STATE_SHAPES:
        specials = _specials(shape, dtype)
        columns.append(np.array(specials * 3))
    n = len(columns[0])
    rngs = pack_rngs([np.random.default_rng(c) for c in range(n)])
    store = CarryStore()
    store.extend(np.arange(n), columns, np.arange(n), rngs)
    (batch,) = store._batches.values()
    assert [len(pool) for pool in batch.pools] == [5, 5, 5]
    for client_id in range(n):
        for row, column in zip(store[client_id]["rows"], columns):
            assert_bits(row, column[client_id])


def test_thinned_batch_drops_unreferenced_rows():
    """Returns from one batch: once its pools hold more than twice its
    live entries' rows, the rows no one references go; the batch's pools
    go with its last entry."""
    n, dim = 8, 5
    rng = np.random.default_rng(3)
    distinct = rng.normal(size=(n, dim))
    shared = np.tile(rng.normal(size=dim), (n, 1))
    shared[::3] = 0.0
    rngs = pack_rngs([np.random.default_rng(c) for c in range(n)])
    entry = 2 * dim * 8
    store = CarryStore()
    store.extend(np.arange(n), [distinct, shared], np.arange(n), rngs)
    assert store.row_bytes == (n + 2) * dim * 8
    for count, client_id in enumerate(rng.permutation(n).tolist(), 1):
        rows = store.pop(client_id)["rows"]
        assert_bits(rows[0], distinct[client_id])
        assert_bits(rows[1], shared[client_id])
        assert_within_dense(store, entry)
        for other in store:
            assert_bits(store[other]["rows"][0], distinct[other])
            assert_bits(store[other]["rows"][1], shared[other])
        if count == 6:
            # 10 pool rows outgrew twice 2 live entries: the distinct
            # column keeps exactly their rows.
            (batch,) = store._batches.values()
            assert len(batch.pools[0]) == batch.live == 2
    assert store.row_bytes == 0 and not store._batches


def test_draining_a_batch_of_distinct_rows_compacts_rarely(monkeypatch):
    """A batch whose rows are all distinct (the permutations of an
    algorithm without client state) has no slack to spare, yet at least
    half its live entries leave between two compactions, so draining it
    copies its rows a logarithmic number of times, not once per return."""
    n, width = 256, 64
    rng = np.random.default_rng(4)
    orders = np.array([rng.permutation(width) for _ in range(n)])
    cursors = rng.integers(0, 8, size=n)
    rngs = pack_rngs([np.random.default_rng(c) for c in range(n)])
    compactions = []
    compact = carry._Batch.compact

    def counted(batch):
        compactions.append(batch.live)
        compact(batch)

    monkeypatch.setattr(carry._Batch, "compact", counted)
    store = CarryStore()
    store.extend(np.arange(n), [orders, cursors], np.arange(n), rngs)
    for client_id in rng.permutation(n).tolist():
        rows = store.pop(client_id)["rows"]
        assert_bits(rows[0], orders[client_id])
        assert_bits(rows[1], cursors[client_id])
        assert_within_dense(store, (width + 1) * 8)
    assert 1 <= len(compactions) <= np.log2(n)
    assert all(2 * b < a for a, b in zip(compactions, compactions[1:]))
    assert store.row_bytes == 0 and not store._batches


def test_empty_store_is_an_empty_mapping():
    store = CarryStore()
    assert store == {}
    values, arrays = store.state("carry:")
    assert arrays == {}
    restored = CarryStore()
    restored.restore(values, arrays, "carry:")
    assert len(restored) == 0
    # A checkpoint of the older block layout without carried clients.
    restored.restore({"entries": 0, "block": 1024, "rows": 0}, {}, "carry:")
    assert len(restored) == 0


def _binder_with_carry(carried: int, batches: int = 1):
    shards = PrototypeShards(
        12, num_features=24, num_classes=6, samples_per_client=20, seed=9
    )
    binder = PopulationBinder(shards, num_edges=2, cohort_per_edge=3, seed=9)
    binder.build_federation(
        make_logistic_regression(24, 6, rng=4), shards.test_set(80),
        batch_size=8,
    )
    algorithm = HierAdMo(binder.fed, eta=0.05, tau=3, pi=2)
    algorithm.attach_population(binder)
    algorithm._setup()
    binder.reset(algorithm)
    for clients in np.array_split(np.arange(100, 100 + carried), batches):
        binder._save_carry(
            algorithm, clients % binder.fed.num_workers, clients
        )
    return binder


def test_checkpoint_members_do_not_grow_with_carried_clients(tmp_path):
    counts = []
    for carried, batches in ((10, 1), (900, 7)):
        binder = _binder_with_carry(carried, batches)
        assert len(binder.carry) == carried
        assert len(binder.carry._batches) == batches
        values, arrays = binder.state()
        path = write_checkpoint(
            tmp_path / str(carried), 1, {"population": values}, arrays
        )
        with zipfile.ZipFile(path) as archive:
            counts.append(len(archive.namelist()))
    assert counts[0] == counts[1]


def _dense_layout(manifest, arrays, prefix="pop:carry:", block=1024):
    """Rewrite a checkpoint's carry members into the fixed-block dense
    layout that came before pools: per block, ``client``, ``rng`` and
    one ``row<k>`` table of every entry's rows."""
    carry = manifest["population"]["carry"]
    columns = carry["rows"]
    offsets = arrays.pop(prefix + "offsets")
    pool_offsets = arrays.pop(prefix + "pool_offsets")
    tables = {
        "client": arrays.pop(prefix + "client"),
        "rng": arrays.pop(prefix + "rng"),
    }
    for column in range(columns):
        pool = arrays.pop(f"{prefix}pool{column}")
        refs = arrays.pop(f"{prefix}ref{column}")
        shift = np.repeat(pool_offsets[:-1, column], np.diff(offsets))
        tables[f"row{column}"] = pool[refs + shift]
    for number in range(-(-carry["entries"] // block)):
        for name, table in tables.items():
            arrays[f"{prefix}{number}:{name}"] = table[
                number * block:(number + 1) * block
            ]
    manifest["population"]["carry"] = {
        "entries": carry["entries"], "block": block, "rows": columns,
    }
    return tables


def _crashed_sampled_checkpoint(tmp_path):
    cls, kwargs = SAMPLED_CASES["HierAdMo"]
    manager = CheckpointManager(tmp_path / "run", every=6)
    make_sampled_algorithm(cls, kwargs).run(
        12, eval_every=6, checkpoints=manager
    )
    manifest, arrays = read_checkpoint(manager.load_latest().path)
    assert manifest["population"]["carry"]["entries"] > 0
    return cls, kwargs, manifest, arrays


def _assert_refused(tmp_path, cls, kwargs, manifest, arrays):
    path = write_checkpoint(
        tmp_path / "old", manifest["iteration"], manifest, arrays
    )
    with pytest.raises(CheckpointError, match="carry format"):
        make_sampled_algorithm(cls, kwargs).run(
            18, eval_every=6, resume_from=load_resume(path)
        )


def test_old_population_checkpoint_rejected(tmp_path):
    """A sampled-population checkpoint in the dense fixed-block carry
    layout (every entry's rows stored, blocks of 1024) is refused, not
    misread."""
    cls, kwargs, manifest, arrays = _crashed_sampled_checkpoint(tmp_path)
    _dense_layout(manifest, arrays, block=4)
    assert "pop:carry:1:row0" in arrays
    _assert_refused(tmp_path, cls, kwargs, manifest, arrays)


def test_ragged_population_checkpoint_rejected(tmp_path):
    """The layout before that, whose blocks keep sampler cursors and
    concatenated permutations as their own members, is refused too."""
    cls, kwargs, manifest, arrays = _crashed_sampled_checkpoint(tmp_path)
    tables = _dense_layout(manifest, arrays)
    carry = manifest["population"]["carry"]
    rows = carry["rows"] - 2
    orders = arrays.pop(f"pop:carry:0:row{rows}")
    arrays["pop:carry:0:cursor"] = arrays.pop(f"pop:carry:0:row{rows + 1}")
    arrays["pop:carry:0:order"] = orders.ravel()
    arrays["pop:carry:0:offsets"] = np.arange(len(orders) + 1) * orders.shape[1]
    carry["rows"] = rows
    assert len(tables["client"]) <= 1024
    _assert_refused(tmp_path, cls, kwargs, manifest, arrays)
