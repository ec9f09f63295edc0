"""Versioned, checksummed, atomic on-disk checkpoint format.

One checkpoint is one ``.npz`` file, ``ckpt-<iteration:08d>.npz``,
holding every state array plus a JSON manifest embedded under the
reserved ``__manifest__`` key (as a uint8 byte array, so the whole
checkpoint stays a single self-describing archive).  The manifest
records the format name/version and, for every array, its dtype, shape
and CRC-32 — :func:`read_checkpoint` re-verifies all three, so silent
corruption surfaces as :class:`CheckpointError` instead of a wrong
resume.  The CRC hashes each array's buffer in place, so a large
checkpoint is not copied to be checksummed.

Version 2 stores per-client and per-worker state as columnar tables
(a few members per thousand clients, not a few per client); a reader
refuses every other version, version 1 included.

Durability comes from write-then-rename
(:func:`repro.utils.io.replace_into`): the archive is written to a temp
file *in the destination directory* (same filesystem), flushed and
fsynced, then moved over the final name with :func:`os.replace`.  A
crash mid-save leaves at worst a stray temp file; the previous
checkpoint under the final name is never touched.  There is no LATEST
pointer to keep consistent — "latest" is simply the highest-iteration
file that still reads and verifies (:func:`latest_checkpoint` skips
corrupt or truncated leftovers).
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from zlib import crc32

import numpy as np

from repro.utils.io import replace_into

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
]

FORMAT_NAME = "repro-checkpoint"
FORMAT_VERSION = 2

# Reserved npz key carrying the JSON manifest as raw bytes.
MANIFEST_KEY = "__manifest__"

_PREFIX = "ckpt-"
_SUFFIX = ".npz"


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt, truncated or incompatible."""


def checkpoint_path(directory: str | Path, iteration: int) -> Path:
    """Canonical file name for the checkpoint taken at ``iteration``."""
    return Path(directory) / f"{_PREFIX}{int(iteration):08d}{_SUFFIX}"


def _crc(array: np.ndarray) -> int:
    # zlib reads the array's buffer directly: no tobytes() copy.
    return crc32(np.ascontiguousarray(array))


def write_checkpoint(
    directory: str | Path,
    iteration: int,
    manifest: dict,
    arrays: dict[str, np.ndarray],
) -> Path:
    """Atomically write one checkpoint; returns its final path.

    ``manifest`` must be JSON-able; the format header, the iteration
    and the per-array metadata are stamped in here (overwriting any
    same-named keys the caller passed).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if MANIFEST_KEY in arrays:
        raise ValueError(f"array name {MANIFEST_KEY!r} is reserved")
    arrays = {
        name: np.ascontiguousarray(array)
        for name, array in arrays.items()
    }
    manifest = dict(manifest)
    manifest["format"] = FORMAT_NAME
    manifest["version"] = FORMAT_VERSION
    manifest["iteration"] = int(iteration)
    manifest["arrays"] = {
        name: {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "crc32": _crc(array),
        }
        for name, array in arrays.items()
    }
    blob = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode("utf-8"),
        dtype=np.uint8,
    )
    target = checkpoint_path(directory, iteration)
    with replace_into(target) as tmp, open(tmp, "wb") as handle:
        np.savez(handle, **{MANIFEST_KEY: blob}, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    return target


def read_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and verify one checkpoint; returns ``(manifest, arrays)``.

    Raises :class:`CheckpointError` on any structural or integrity
    problem: unreadable archive, missing/garbled manifest, wrong format
    or version, arrays missing/extra relative to the manifest, or a
    dtype/shape/CRC mismatch.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if MANIFEST_KEY not in data.files:
                raise CheckpointError(f"{path}: no manifest")
            manifest = json.loads(bytes(data[MANIFEST_KEY]).decode("utf-8"))
            if manifest.get("format") != FORMAT_NAME:
                raise CheckpointError(
                    f"{path}: not a {FORMAT_NAME} file "
                    f"(format={manifest.get('format')!r})"
                )
            if manifest.get("version") != FORMAT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {manifest.get('version')!r}, "
                    f"this reader understands {FORMAT_VERSION}"
                )
            declared = manifest.get("arrays", {})
            stored = set(data.files) - {MANIFEST_KEY}
            missing = sorted(set(declared) - stored)
            extra = sorted(stored - set(declared))
            if missing or extra:
                raise CheckpointError(
                    f"{path}: archive/manifest disagree "
                    f"(missing={missing}, extra={extra})"
                )
            arrays: dict[str, np.ndarray] = {}
            for name, meta in declared.items():
                array = data[name]
                if (
                    str(array.dtype) != meta["dtype"]
                    or list(array.shape) != list(meta["shape"])
                ):
                    raise CheckpointError(
                        f"{path}: array {name!r} is "
                        f"{array.dtype}{array.shape}, manifest says "
                        f"{meta['dtype']}{tuple(meta['shape'])}"
                    )
                if _crc(array) != meta["crc32"]:
                    raise CheckpointError(
                        f"{path}: checksum mismatch on array {name!r}"
                    )
                arrays[name] = array
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    return manifest, arrays


def read_manifest(path: str | Path) -> dict:
    """Read only the manifest (no array verification) — cheap.

    Retention pruning needs each file's recorded accuracy without
    paying a full integrity pass; resume always goes through
    :func:`read_checkpoint` instead.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            if MANIFEST_KEY not in data.files:
                raise CheckpointError(f"{path}: no manifest")
            manifest = json.loads(bytes(data[MANIFEST_KEY]).decode("utf-8"))
    except CheckpointError:
        raise
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from exc
    return manifest


def list_checkpoints(directory: str | Path) -> list[Path]:
    """Checkpoint files under ``directory``, sorted by iteration."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found: list[tuple[int, Path]] = []
    for path in directory.glob(f"{_PREFIX}*{_SUFFIX}"):
        digits = path.name[len(_PREFIX):-len(_SUFFIX)]
        if digits.isdigit():
            found.append((int(digits), path))
    return [path for _, path in sorted(found)]


def latest_checkpoint(
    directory: str | Path,
) -> tuple[Path, dict, dict[str, np.ndarray]] | None:
    """Newest checkpoint that reads and verifies, or ``None``.

    Corrupt/truncated files (e.g. the half-written victim of a crash
    that somehow reached the final name, or a damaged disk block) are
    skipped, falling back to the next-newest intact checkpoint.
    """
    for path in reversed(list_checkpoints(directory)):
        try:
            manifest, arrays = read_checkpoint(path)
        except CheckpointError:
            continue
        return path, manifest, arrays
    return None
