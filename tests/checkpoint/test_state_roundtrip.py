"""Serialization round-trips: restore -> one step == uninterrupted step.

``test_crash_resume`` checks the history an observer sees; these tests
check the state itself.  For every golden-battery algorithm, a run that
checkpoints at iteration 6 and a fresh instance resumed from that file
must hold *bit-identical* internal state after one more step — every
``CKPT_ARRAYS`` matrix compared with ``np.array_equal``, every
``CKPT_VALUES`` entry compared through a JSON normal form.

The RNG-stream tests below pin the two non-algorithm state carriers:
data samplers (permutation + cursor + generator) and the fault
injector's monotone message sequence.
"""

import json

import numpy as np
import pytest

from repro.checkpoint import CheckpointError, CheckpointManager
from repro.checkpoint.format import read_checkpoint, write_checkpoint
from repro.checkpoint.state import (
    RNG_WORDS,
    federation_state,
    injector_state,
    pack_rngs,
    restore_federation,
    restore_injector,
    set_rng_state,
    unpack_rng,
)
from repro.faults import FaultInjector, FaultPlan
from tests.integration.test_golden_trajectories import (
    ALGORITHMS,
    build_federation,
)

pytestmark = pytest.mark.checkpoint

SAVE_AT = 6
TOTAL = 7


def normalized(values: dict) -> str:
    """JSON normal form: tuples/lists and int/float unify as in a manifest."""
    return json.dumps(values, sort_keys=True)


class TestAlgorithmStateRoundtrip:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_restore_then_one_step_matches(self, name, tmp_path):
        cls, kwargs = ALGORITHMS[name]
        golden = cls(build_federation(), **kwargs)
        manager = CheckpointManager(tmp_path, every=SAVE_AT)
        golden_history = golden.run(
            TOTAL, eval_every=SAVE_AT, checkpoints=manager
        )

        resumed = cls(build_federation(), **kwargs)
        resumed_history = resumed.run(
            TOTAL, eval_every=SAVE_AT, resume_from=manager.load_latest()
        )

        golden_arrays = golden.checkpoint_arrays()
        resumed_arrays = resumed.checkpoint_arrays()
        assert set(resumed_arrays) == set(golden_arrays)
        for key in sorted(golden_arrays):
            assert np.array_equal(
                resumed_arrays[key], golden_arrays[key]
            ), f"{name}: array {key!r} diverged one step after restore"
        assert normalized(resumed.checkpoint_values()) == normalized(
            golden.checkpoint_values()
        )
        assert resumed_history.test_accuracy == golden_history.test_accuracy
        assert resumed_history.test_loss == golden_history.test_loss


class TestRngStreams:
    def test_generator_state_roundtrips_through_json(self):
        generator = np.random.default_rng(42)
        generator.random(10)
        snapshot = json.loads(json.dumps(generator.bit_generator.state))
        golden = generator.random(5)
        fresh = np.random.default_rng(0)
        set_rng_state(fresh, snapshot)
        assert np.array_equal(fresh.random(5), golden)

    def test_packed_state_roundtrips_bit_for_bit(self, tmp_path):
        """128-bit state/inc words and a buffered 32-bit half survive
        pack -> archive -> unpack exactly."""
        generator = np.random.default_rng(0)
        generator.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": (1 << 128) - 3, "inc": (1 << 127) | 5},
            "has_uint32": 0,
            "uinteger": 0,
        }
        # An odd number of 32-bit draws leaves half a word buffered.
        generator.integers(0, 1 << 32, size=3, dtype=np.uint32)
        state = generator.bit_generator.state
        assert state["has_uint32"] == 1
        assert state["state"]["state"] >> 64 and state["state"]["inc"] >> 64

        packed = pack_rngs([generator])[0]
        assert packed.dtype == np.uint64 and packed.shape == (RNG_WORDS,)
        write_checkpoint(tmp_path, 1, {}, {"rng": packed})
        _, arrays = read_checkpoint(tmp_path / "ckpt-00000001.npz")
        assert unpack_rng(arrays["rng"]) == state

        golden = generator.integers(0, 1 << 32, size=5, dtype=np.uint32)
        fresh = np.random.default_rng(1)
        set_rng_state(fresh, unpack_rng(arrays["rng"]))
        assert np.array_equal(
            fresh.integers(0, 1 << 32, size=5, dtype=np.uint32), golden
        )

    def test_non_pcg64_generator_refused(self):
        generator = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(CheckpointError, match="PCG64"):
            pack_rngs([generator])[0]

    def test_batch_samplers_resume_mid_epoch(self):
        federation = build_federation()
        store = federation.store
        workers = range(federation.num_workers)
        for worker in workers:
            for _ in range(5):
                store.next_batch(worker)
        values, arrays = federation_state(federation)
        # Golden tail crosses an epoch boundary, so the generator
        # state (not just order + cursor) must round-trip too.
        golden = [
            [store.next_batch(worker) for _ in range(4)]
            for worker in workers
        ]

        fresh = build_federation()
        for worker in workers:
            for _ in range(2):  # desynchronize on purpose
                fresh.store.next_batch(worker)
        restore_federation(fresh, values, arrays)
        for worker, expected in zip(workers, golden):
            for x, y in expected:
                batch_x, batch_y = fresh.store.next_batch(worker)
                assert np.array_equal(batch_x, x)
                assert np.array_equal(batch_y, y)

    def test_sampler_count_mismatch_rejected(self):
        federation = build_federation()
        values, arrays = federation_state(federation)
        values = dict(values, samplers=values["samplers"][:-1])
        with pytest.raises(ValueError, match="samplers"):
            restore_federation(federation, values, arrays)

    def test_permutation_sizes_must_match_the_datasets(self):
        """Same total length, one sample moved between two workers."""
        federation = build_federation()
        values, arrays = federation_state(federation)
        offsets = arrays["fed:sampler:offsets"].copy()
        offsets[1] += 1
        arrays = dict(arrays, **{"fed:sampler:offsets": offsets})
        with pytest.raises(ValueError, match="dataset sizes"):
            restore_federation(federation, values, arrays)


class TestInjectorRoundtrip:
    PLAN = FaultPlan(
        seed=13,
        msg_loss=0.3,
        msg_duplication=0.2,
        msg_staleness=0.5,
        staleness_intervals=2,
    )

    def advance(self, injector, matrices):
        """Drive the message stream; returns the realized outcomes."""
        outcomes = []
        for matrix in matrices:
            outcomes.append(
                (
                    injector.transfer_outcome(4),
                    injector.stale_substitute("edge", matrix).copy(),
                )
            )
        return outcomes

    def test_message_stream_replays_after_restore(self):
        rng = np.random.default_rng(0)
        matrices = [rng.normal(size=(4, 6)) for _ in range(6)]
        injector = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        self.advance(injector, matrices[:3])
        values, arrays = injector_state(injector)
        golden = self.advance(injector, matrices[3:])
        golden_counts = dict(injector.counts)

        fresh = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        self.advance(fresh, matrices[:1])  # desynchronize on purpose
        restore_injector(fresh, values, arrays)
        replayed = self.advance(fresh, matrices[3:])
        for (g_out, g_mat), (r_out, r_mat) in zip(golden, replayed):
            assert r_out == g_out
            assert np.array_equal(r_mat, g_mat)
        assert fresh.counts == golden_counts

    def test_state_survives_json_and_archive(self, tmp_path):
        """The injector snapshot must stay exact through the actual
        manifest (JSON) + npz array path, not just in memory."""
        from repro.checkpoint.format import read_checkpoint, write_checkpoint

        rng = np.random.default_rng(1)
        matrices = [rng.normal(size=(4, 6)) for _ in range(4)]
        injector = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        self.advance(injector, matrices[:2])
        values, arrays = injector_state(injector)
        write_checkpoint(tmp_path, 1, {"faults": values}, arrays)
        manifest, loaded = read_checkpoint(
            tmp_path / "ckpt-00000001.npz"
        )
        golden = self.advance(injector, matrices[2:])

        fresh = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        restore_injector(fresh, manifest["faults"], loaded)
        replayed = self.advance(fresh, matrices[2:])
        for (g_out, g_mat), (r_out, r_mat) in zip(golden, replayed):
            assert r_out == g_out
            assert np.array_equal(r_mat, g_mat)
