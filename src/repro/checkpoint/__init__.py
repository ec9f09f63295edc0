"""Durable checkpoint/restore for full federation state.

See :mod:`repro.checkpoint.format` for the on-disk format (atomic,
versioned, checksummed single-file archives), :mod:`repro.checkpoint.state`
for the RNG/sampler/buffer/injector capture helpers, and
:mod:`repro.checkpoint.manager` for the run-facing orchestration
(periodic + on-alert saves, retention, resume, config-driven rebuild).
"""

from repro.checkpoint.format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    CheckpointError,
    checkpoint_path,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.checkpoint.manager import (
    CheckpointManager,
    RestoredRun,
    load_resume,
    restore,
)
from repro.checkpoint.state import (
    federation_state,
    injector_state,
    pack_rngs,
    restore_federation,
    restore_injector,
    set_rng_state,
    unpack_rng,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "CheckpointError",
    "checkpoint_path",
    "write_checkpoint",
    "read_checkpoint",
    "read_manifest",
    "list_checkpoints",
    "latest_checkpoint",
    "CheckpointManager",
    "RestoredRun",
    "load_resume",
    "restore",
    "set_rng_state",
    "pack_rngs",
    "unpack_rng",
    "federation_state",
    "restore_federation",
    "injector_state",
    "restore_injector",
]
