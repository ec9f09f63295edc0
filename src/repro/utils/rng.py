"""Deterministic random-number streams.

Every stochastic component of the library (dataset synthesis, partitioning,
mini-batch sampling per worker, weight initialization, delay sampling) draws
from its own named child stream of a single experiment seed.  This makes
every experiment reproducible bit-for-bit while keeping components
statistically independent.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "make_rng",
    "child_seed",
    "child_seeds",
    "default_rng_states",
    "RngStreams",
]

_SEED_MASK = 0x7FFF_FFFF_FFFF_FFFF


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a NumPy Generator for ``seed``.

    Accepts an existing Generator (returned unchanged), an integer seed, or
    ``None`` (OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_seed(seed: int, *names: str | int) -> int:
    """Derive a stable 63-bit child seed from ``seed`` and a name path.

    The derivation hashes the textual path, so ``child_seed(7, "worker", 3)``
    is stable across processes and Python versions (unlike ``hash``).
    """
    text = repr(int(seed)) + "/" + "/".join(str(name) for name in names)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _SEED_MASK


def child_seeds(seed: int, *names: str | int, ids) -> np.ndarray:
    """``child_seed(seed, *names, i)`` for every ``i`` in ``ids`` (int64).

    The shared name prefix is hashed once; each id only extends a copy.
    """
    prefix = repr(int(seed)) + "/" + "".join(f"{name}/" for name in names)
    base = hashlib.sha256(prefix.encode("utf-8"))
    digests = []
    for client in np.asarray(ids, dtype=np.int64).tolist():
        hasher = base.copy()
        hasher.update(str(client).encode("utf-8"))
        digests.append(hasher.digest()[:8])
    words = np.frombuffer(b"".join(digests), dtype="<u8")
    return (words & np.uint64(_SEED_MASK)).astype(np.int64)


# numpy's SeedSequence hash constants (a pool of four 32-bit words) and
# the PCG64 LCG multiplier, as in numpy/random/bit_generator.pyx and
# pcg64.h.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1


def default_rng_states(seeds) -> list[dict]:
    """``np.random.default_rng(s).bit_generator.state`` for each seed.

    ``default_rng(seed)`` costs ~15-20 us, mostly numpy's
    ``SeedSequence`` hashing, which is the same 32-bit arithmetic for
    every seed.  This runs that hashing once over the whole batch
    (seeds are non-negative and below 2**64) and finishes the two-step
    PCG64 initialization in Python integers.  Assigning a result to a
    generator's ``bit_generator.state`` gives, bit for bit, the
    generator ``default_rng(s)`` builds.
    """
    seeds = np.asarray(seeds).reshape(-1)
    if seeds.size and seeds.min() < 0:
        raise ValueError("seeds must be non-negative")
    seeds = seeds.astype(np.uint64)
    u32 = np.uint32
    shift = u32(16)
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ u32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * u32(hash_a)
        return value ^ (value >> shift)

    def mix(x, y):
        result = u32(_MIX_L) * x - u32(_MIX_R) * y
        return result ^ (result >> shift)

    # A seed is at most two 32-bit entropy words; a one-word seed hashes
    # like a zero high word, because the pool pads with zeros.
    low = (seeds & np.uint64(_MASK32)).astype(u32)
    high = (seeds >> np.uint64(32)).astype(u32)
    zero = np.zeros_like(low)
    pool = [hashmix(low), hashmix(high), hashmix(zero), hashmix(zero)]
    for source in range(4):
        for target in range(4):
            if source != target:
                pool[target] = mix(pool[target], hashmix(pool[source]))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian.
    hash_b = _INIT_B
    words = []
    for index in range(8):
        value = pool[index % 4] ^ u32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * u32(hash_b)
        words.append((value ^ (value >> shift)).astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (words[2 * j] | words[2 * j + 1] << np.uint64(32)).tolist()
        for j in range(4)
    )
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg_setseq_128_srandom_r: state 0, one step, add the seed, step.
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append(
            {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
        )
    return states


class RngStreams:
    """A family of named, independent random streams under one root seed.

    >>> streams = RngStreams(123)
    >>> a = streams.get("data")
    >>> b = streams.get("worker", 0)
    >>> a is streams.get("data")  # streams are cached by name path
    True
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[tuple, np.random.Generator] = {}

    def get(self, *names: str | int) -> np.random.Generator:
        """Return (creating on first use) the stream for a name path."""
        key = tuple(names)
        if key not in self._streams:
            self._streams[key] = np.random.default_rng(
                child_seed(self.seed, *names)
            )
        return self._streams[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, open={len(self._streams)})"
