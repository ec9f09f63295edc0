"""Capture/restore helpers for the stateful runtime pieces.

Everything a bit-exact resume needs beyond the algorithm's own stacked
matrices lives here:

* **RNG streams** — a ``numpy`` :class:`~numpy.random.Generator` round-
  trips through ``bit_generator.state``, a plain JSON-able dict (Python
  ``json`` handles the 128-bit PCG64 integers natively), or packs into
  one ``uint64`` row of :data:`RNG_WORDS` words (:func:`pack_rngs` /
  :func:`unpack_rng`) so that many streams store as one table;
* **batch streams** — each row of a federation's
  :class:`~repro.data.loader.SampleStore` is its generator state plus
  its current permutation and cursor.  They store as a list of cursors
  and three tables: packed RNG rows, and the permutations' used
  prefixes as one flat array plus offsets (shards differ in length);
* **model buffers** — BatchNorm running statistics, which live outside
  the flat parameter vector and advance during training;
* **fault injectors** — realized-event counters, the monotone message
  sequence, the staleness ring buffers and the per-interval edge-mask
  cache.

Each ``*_state`` helper returns ``(values, arrays)`` — a JSON-able dict
for the checkpoint manifest and a dict of numpy arrays for the archive
— and the matching ``restore_*`` applies them to a freshly constructed
object of the same shape.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.checkpoint.format import CheckpointError

__all__ = [
    "RNG_WORDS",
    "set_rng_state",
    "pack_rngs",
    "unpack_rng",
    "federation_state",
    "restore_federation",
    "injector_state",
    "restore_injector",
]


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
def set_rng_state(generator: np.random.Generator, state: dict) -> None:
    """Apply a ``bit_generator.state`` dict (the bit generators must match)."""
    generator.bit_generator.state = state


# A packed PCG64 state: the 128-bit ``state`` and ``inc`` as (high, low)
# 64-bit halves, then ``has_uint32`` and the buffered ``uinteger``.
RNG_WORDS = 6
_LOW = (1 << 64) - 1


def pack_rngs(generators) -> np.ndarray:
    """PCG64 generators' states as an ``(n, RNG_WORDS)`` ``uint64`` table."""
    words = []
    for generator in generators:
        state = generator.bit_generator.state
        if state["bit_generator"] != "PCG64":
            raise CheckpointError(
                f"cannot pack a {state['bit_generator']} generator: "
                "checkpoints store PCG64 streams only"
            )
        core = state["state"]
        words += (
            core["state"] >> 64,
            core["state"] & _LOW,
            core["inc"] >> 64,
            core["inc"] & _LOW,
            state["has_uint32"],
            state["uinteger"],
        )
    return np.array(words, dtype=np.uint64).reshape(-1, RNG_WORDS)


def unpack_rng(words: np.ndarray) -> dict:
    """One :func:`pack_rngs` row back to its ``bit_generator.state`` dict."""
    hi_state, lo_state, hi_inc, lo_inc, has_uint32, uinteger = (
        int(word) for word in words
    )
    return {
        "bit_generator": "PCG64",
        "state": {
            "state": hi_state << 64 | lo_state,
            "inc": hi_inc << 64 | lo_inc,
        },
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }


# ----------------------------------------------------------------------
# Federation: batch streams + model buffers
# ----------------------------------------------------------------------
def _norm_layers(model):
    from repro.nn.norm import BatchNorm2d

    return [
        layer
        for layer in model.module.modules()
        if isinstance(layer, BatchNorm2d)
    ]


def _used(store) -> np.ndarray:
    """Mask of each row's permutation prefix, in row-major order."""
    return np.arange(store.width) < store.size[:, None]


def federation_state(federation) -> tuple[dict, dict[str, np.ndarray]]:
    """Snapshot batch-stream cursors and BatchNorm buffers."""
    store = federation.store
    values: dict = {"samplers": store.cursor.tolist()}
    arrays: dict[str, np.ndarray] = {
        "fed:sampler:rng": pack_rngs(store.rngs),
        "fed:sampler:order": store.order[_used(store)],
        "fed:sampler:offsets": np.cumsum(
            np.concatenate(([0], store.size)), dtype=np.int64
        ),
    }
    for index, layer in enumerate(_norm_layers(federation.model)):
        for key, buffer in layer.get_buffers().items():
            arrays[f"fed:bn{index}:{key}"] = np.asarray(buffer)
    return values, arrays


def restore_federation(
    federation, values: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Apply a :func:`federation_state` snapshot to ``federation``.

    The federation must be freshly built with the same geometry (same
    worker count, datasets and model architecture); shape mismatches
    surface as errors rather than silent drift.
    """
    store = federation.store
    cursors = values["samplers"]
    if len(cursors) != len(store.rngs):
        raise ValueError(
            f"checkpoint has {len(cursors)} samplers, federation has "
            f"{len(store.rngs)}"
        )
    if not np.array_equal(np.diff(arrays["fed:sampler:offsets"]), store.size):
        raise ValueError(
            "checkpoint sampler permutations do not match the "
            "federation's dataset sizes"
        )
    for rng, words in zip(store.rngs, arrays["fed:sampler:rng"]):
        set_rng_state(rng, unpack_rng(words))
    store.order[_used(store)] = arrays["fed:sampler:order"]
    store.cursor[:] = cursors
    for index, layer in enumerate(_norm_layers(federation.model)):
        buffers = layer.get_buffers()
        restored = {
            key: np.array(arrays[f"fed:bn{index}:{key}"])
            for key in buffers
        }
        layer.set_buffers(restored)


# ----------------------------------------------------------------------
# Fault injector
# ----------------------------------------------------------------------
def injector_state(injector) -> tuple[dict, dict[str, np.ndarray]]:
    """Snapshot an injector's realized-event state."""
    values: dict = {
        "counts": dict(injector.counts),
        "msg_sequence": int(injector._msg_sequence),
        "stale_buffers": {},
        "edge_masks": {},
    }
    arrays: dict[str, np.ndarray] = {}
    for label, buffer in injector._stale_buffers.items():
        values["stale_buffers"][label] = {
            "maxlen": buffer.maxlen,
            "count": len(buffer),
        }
        for slot, item in enumerate(buffer):
            arrays[f"inj:stale:{label}:{slot}"] = item
    for interval, mask in injector._edge_masks.items():
        values["edge_masks"][str(interval)] = mask is not None
        if mask is not None:
            arrays[f"inj:mask:{interval}"] = mask
    return values, arrays


def restore_injector(
    injector, values: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Apply an :func:`injector_state` snapshot after ``reset()``."""
    injector.counts = {
        name: int(value) for name, value in values["counts"].items()
    }
    injector._msg_sequence = int(values["msg_sequence"])
    injector._stale_buffers = {}
    for label, meta in values["stale_buffers"].items():
        buffer = deque(maxlen=meta["maxlen"])
        for slot in range(meta["count"]):
            buffer.append(np.array(arrays[f"inj:stale:{label}:{slot}"]))
        injector._stale_buffers[label] = buffer
    injector._edge_masks = {}
    for interval, present in values["edge_masks"].items():
        injector._edge_masks[int(interval)] = (
            np.array(arrays[f"inj:mask:{interval}"]) if present else None
        )
