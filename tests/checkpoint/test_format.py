"""On-disk checkpoint format: round-trip, integrity, atomicity.

The format layer is the durability boundary — everything above it
assumes that a checkpoint either reads back exactly as written or
fails loudly.  These tests exercise both halves: bit-exact round-trips
for every dtype the runtime stores, and CheckpointError on every way a
file can lie (corruption, truncation, missing manifest, wrong version,
archive/manifest disagreement).
"""

import json
import os

import numpy as np
import pytest

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

pytestmark = pytest.mark.checkpoint


def sample_arrays(rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return {
        "algo:x": rng.normal(size=(4, 17)),
        "fed:sampler:order": rng.permutation(50),
        "inj:mask:3": rng.random(4) < 0.5,
        "empty": np.zeros((0, 3)),
    }


def write_sample(directory, iteration, *, extra_manifest=None, seed=0):
    manifest = {"note": "hello", "accuracy": 0.5 + iteration / 100}
    manifest.update(extra_manifest or {})
    return write_checkpoint(
        directory, iteration, manifest, sample_arrays(seed)
    )


class TestRoundtrip:
    def test_arrays_and_manifest_roundtrip(self, tmp_path):
        arrays = sample_arrays()
        path = write_checkpoint(tmp_path, 12, {"note": "hi"}, arrays)
        assert path == checkpoint_path(tmp_path, 12)
        manifest, loaded = read_checkpoint(path)
        assert manifest["note"] == "hi"
        assert manifest["format"] == FORMAT_NAME
        assert manifest["version"] == FORMAT_VERSION
        assert manifest["iteration"] == 12
        assert set(loaded) == set(arrays)
        for name, array in arrays.items():
            assert loaded[name].dtype == array.dtype, name
            assert np.array_equal(loaded[name], array), name

    def test_read_manifest_is_cheap_subset(self, tmp_path):
        path = write_sample(tmp_path, 3)
        manifest = read_manifest(path)
        assert manifest["iteration"] == 3
        assert manifest["accuracy"] == pytest.approx(0.53)

    def test_reserved_array_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_checkpoint(
                tmp_path, 1, {}, {"__manifest__": np.zeros(3)}
            )

    def test_listing_sorted_and_filtered(self, tmp_path):
        for iteration in (20, 5, 300):
            write_sample(tmp_path, iteration)
        (tmp_path / "ckpt-notdigits.npz").write_bytes(b"junk")
        (tmp_path / "unrelated.txt").write_text("x")
        (tmp_path / ".ckpt-xyz.tmp").write_bytes(b"leftover temp")
        paths = list_checkpoints(tmp_path)
        assert [p.name for p in paths] == [
            "ckpt-00000005.npz", "ckpt-00000020.npz", "ckpt-00000300.npz",
        ]

    def test_missing_directory_lists_empty(self, tmp_path):
        assert list_checkpoints(tmp_path / "nope") == []
        assert latest_checkpoint(tmp_path / "nope") is None


class TestIntegrity:
    def test_flipped_byte_detected(self, tmp_path):
        path = write_sample(tmp_path, 7)
        blob = bytearray(path.read_bytes())
        # Flip a byte in the middle of the archive — lands in array
        # data (zip CRC or manifest CRC catches it either way).
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_truncated_file_detected(self, tmp_path):
        path = write_sample(tmp_path, 7)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_npz_without_manifest_rejected(self, tmp_path):
        path = checkpoint_path(tmp_path, 2)
        with open(path, "wb") as handle:
            np.savez(handle, x=np.zeros(3))
        with pytest.raises(CheckpointError, match="no manifest"):
            read_checkpoint(path)

    def write_versioned(self, tmp_path, version):
        manifest = {"format": FORMAT_NAME, "version": version, "arrays": {}}
        blob = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        path = checkpoint_path(tmp_path, 2)
        with open(path, "wb") as handle:
            np.savez(handle, __manifest__=blob)
        return path

    def test_future_format_version_rejected(self, tmp_path):
        path = self.write_versioned(tmp_path, FORMAT_VERSION + 1)
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_v1_per_client_format_rejected(self, tmp_path):
        """Version 1 stored one member per client; v2 readers refuse it."""
        assert FORMAT_VERSION == 2
        path = self.write_versioned(tmp_path, 1)
        with pytest.raises(CheckpointError, match="version 1"):
            read_checkpoint(path)

    def test_archive_manifest_disagreement_rejected(self, tmp_path):
        path = write_sample(tmp_path, 4)
        manifest, arrays = read_checkpoint(path)
        # Rewrite the archive with one array dropped: the manifest
        # still declares it, so the reader must refuse.
        blob = np.frombuffer(
            json.dumps(manifest, sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        kept = {k: v for k, v in arrays.items() if k != "algo:x"}
        with open(path, "wb") as handle:
            np.savez(handle, __manifest__=blob, **kept)
        with pytest.raises(CheckpointError, match="missing"):
            read_checkpoint(path)

    def test_latest_skips_corrupt_newest(self, tmp_path):
        intact = write_sample(tmp_path, 10)
        corrupt = write_sample(tmp_path, 20)
        corrupt.write_bytes(corrupt.read_bytes()[:100])
        found = latest_checkpoint(tmp_path)
        assert found is not None
        path, manifest, _ = found
        assert path == intact
        assert manifest["iteration"] == 10

    def test_latest_none_when_all_corrupt(self, tmp_path):
        path = write_sample(tmp_path, 10)
        path.write_bytes(b"not a zip archive")
        assert latest_checkpoint(tmp_path) is None


class TestAtomicity:
    def test_successful_write_leaves_no_temp_files(self, tmp_path):
        write_sample(tmp_path, 1)
        write_sample(tmp_path, 2)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-00000001.npz", "ckpt-00000002.npz"]

    def test_failed_write_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = write_sample(tmp_path, 5, seed=1)
        before = path.read_bytes()

        def exploding_fsync(fd):
            raise OSError("disk on fire")

        monkeypatch.setattr(
            "repro.checkpoint.format.os.fsync", exploding_fsync
        )
        with pytest.raises(OSError, match="disk on fire"):
            write_sample(tmp_path, 5, seed=2)
        # Same final name: the victim of the failed save is untouched,
        # and the aborted temp file was cleaned up.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        manifest, arrays = read_checkpoint(path)
        assert np.array_equal(arrays["algo:x"], sample_arrays(1)["algo:x"])

    def test_unserializable_manifest_fails_before_touching_disk(
        self, tmp_path
    ):
        with pytest.raises(TypeError):
            write_checkpoint(
                tmp_path, 1, {"bad": object()}, sample_arrays()
            )
        assert list(tmp_path.iterdir()) == []
