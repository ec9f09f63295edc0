"""Tests for deterministic RNG streams."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import (
    RngStreams,
    child_seed,
    child_seeds,
    default_rng_states,
    make_rng,
)


class TestMakeRng:
    def test_integer_seed_is_deterministic(self):
        a = make_rng(42).random(8)
        b = make_rng(42).random(8)
        assert np.array_equal(a, b)

    def test_passthrough_generator(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(make_rng(None), np.random.Generator)


class TestChildSeed:
    def test_stable_across_calls(self):
        assert child_seed(7, "worker", 3) == child_seed(7, "worker", 3)

    def test_distinct_paths_distinct_seeds(self):
        seeds = {
            child_seed(7, "worker", i) for i in range(100)
        }
        assert len(seeds) == 100

    def test_distinct_roots_distinct_seeds(self):
        assert child_seed(1, "data") != child_seed(2, "data")

    def test_seed_fits_in_63_bits(self):
        for i in range(50):
            assert 0 <= child_seed(123, i) < 2**63

    @given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
    def test_always_valid_seed(self, root, name):
        seed = child_seed(root, name)
        # Must be accepted by numpy as a seed.
        np.random.default_rng(seed)


class TestBatchedSeeding:
    """The batched helpers against numpy's own per-seed construction."""

    def test_child_seeds_match_child_seed(self):
        ids = np.array([0, 1, 9, 10, 12345, 999_999, 2**40])
        expected = [child_seed(7, "shard", int(i)) for i in ids]
        assert child_seeds(7, "shard", ids=ids).tolist() == expected
        assert child_seeds(7, ids=ids).tolist() == [
            child_seed(7, int(i)) for i in ids
        ]
        assert child_seeds(7, "shard", ids=[]).size == 0

    def test_default_rng_states_match_numpy(self):
        # Random 63-bit seeds plus the one- and two-word boundaries of
        # numpy's SeedSequence entropy coercion.
        seeds = np.random.default_rng(3).integers(0, 2**63, size=300).tolist()
        seeds += [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**64 - 1]
        states = default_rng_states(np.array(seeds, dtype=np.uint64))
        assert len(states) == len(seeds)
        for seed, state in zip(seeds, states):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_seeded_state_draws_like_default_rng(self):
        generator = np.random.default_rng(0)
        generator.bit_generator.state = default_rng_states([42])[0]
        assert np.array_equal(
            generator.standard_normal(8),
            np.random.default_rng(42).standard_normal(8),
        )

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            default_rng_states([3, -1])


class TestRngStreams:
    def test_same_path_same_stream_object(self):
        streams = RngStreams(5)
        assert streams.get("a") is streams.get("a")

    def test_different_paths_independent(self):
        streams = RngStreams(5)
        a = streams.get("a").random(4)
        b = streams.get("b").random(4)
        assert not np.array_equal(a, b)

    def test_reproducible_across_instances(self):
        a = RngStreams(9).get("x", 1).random(4)
        b = RngStreams(9).get("x", 1).random(4)
        assert np.array_equal(a, b)

    def test_mixed_name_types(self):
        streams = RngStreams(3)
        assert streams.get("w", 0) is not streams.get("w", "0") or True
        # Both paths must at least be usable.
        streams.get("w", 0).random(1)
        streams.get("w", "0").random(1)
