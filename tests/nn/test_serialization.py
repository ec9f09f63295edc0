"""Tests for model weight checkpointing."""

import numpy as np
import pytest

from repro.nn import BatchNorm1d, Dense, ReLU, Sequential
from repro.nn.models import make_cnn
from repro.nn.serialization import load_weights, save_weights
from tests.nn.rows import bind_rows


def small_net(rng=0):
    return Sequential(Dense(4, 8, rng=rng), ReLU(), Dense(8, 3, rng=rng))


class TestRoundtrip:
    def test_weights_roundtrip(self, tmp_path):
        source = small_net(rng=1)
        path = tmp_path / "model.npz"
        save_weights(source, path)
        target = small_net(rng=2)  # different init
        load_weights(target, path)
        assert np.array_equal(
            source.get_flat_params(), target.get_flat_params()
        )

    def test_predictions_identical_after_load(self, tmp_path):
        model = make_cnn(1, 8, 5, width=4, hidden=8, rng=3)
        path = tmp_path / "cnn.npz"
        save_weights(model.module, path)
        clone = make_cnn(1, 8, 5, width=4, hidden=8, rng=99)
        load_weights(clone.module, path)
        x = np.random.default_rng(0).normal(size=(3, 1, 8, 8))
        assert np.allclose(model.predict(x), clone.predict(x))

    def test_batchnorm_buffers_roundtrip(self, tmp_path):
        net = Sequential(Dense(4, 6, rng=0), BatchNorm1d(6))
        bind_rows(net)
        net.forward(np.random.default_rng(1).normal(size=(1, 32, 4)))
        path = tmp_path / "bn.npz"
        save_weights(net, path)
        clone = Sequential(Dense(4, 6, rng=9), BatchNorm1d(6))
        load_weights(clone, path)
        assert np.array_equal(
            net.layers[1].running_mean, clone.layers[1].running_mean
        )

    def test_architecture_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_weights(small_net(), path)
        other = Sequential(Dense(4, 9, rng=0), Dense(9, 3, rng=0))
        with pytest.raises(ValueError, match="architecture mismatch"):
            load_weights(other, path)


def rewrite_npz(path, mutate):
    """Reload ``path``, apply ``mutate`` to the array dict, rewrite it."""
    with np.load(path, allow_pickle=False) as data:
        arrays = {key: data[key] for key in data.files}
    mutate(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


class TestStrictLoading:
    """load_weights must refuse partial state instead of guessing."""

    def bn_net(self, rng=0):
        net = Sequential(Dense(4, 6, rng=rng), BatchNorm1d(6))
        bind_rows(net)
        net.forward(np.random.default_rng(1).normal(size=(1, 16, 4)))
        return net

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "bn.npz"
        save_weights(self.bn_net(), path)
        rewrite_npz(path, lambda a: a.pop("bn0_mean"))
        with pytest.raises(ValueError, match="missing keys.*bn0_mean"):
            load_weights(self.bn_net(rng=9), path)

    def test_extra_key_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_weights(small_net(), path)
        rewrite_npz(
            path, lambda a: a.update(rogue=np.zeros(3))
        )
        with pytest.raises(ValueError, match="unexpected keys.*rogue"):
            load_weights(small_net(rng=9), path)

    def test_model_expecting_bn_rejects_plain_checkpoint(self, tmp_path):
        path = tmp_path / "plain.npz"
        save_weights(small_net(), path)
        with pytest.raises(ValueError, match="missing keys"):
            load_weights(self.bn_net(), path)

    def test_flat_param_size_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_weights(small_net(), path)

        def truncate(arrays):
            arrays["flat_params"] = arrays["flat_params"][:-1]

        rewrite_npz(path, truncate)
        with pytest.raises(ValueError, match="size mismatch"):
            load_weights(small_net(rng=9), path)

    def test_bn_buffer_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bn.npz"
        save_weights(self.bn_net(), path)

        def shrink(arrays):
            arrays["bn0_mean"] = arrays["bn0_mean"][:-1]

        rewrite_npz(path, shrink)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_weights(self.bn_net(rng=9), path)


class TestAtomicSave:
    def test_successful_save_leaves_only_final_file(self, tmp_path):
        save_weights(small_net(), tmp_path / "model.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_failed_save_preserves_previous_checkpoint(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "model.npz"
        source = small_net(rng=1)
        save_weights(source, path)
        before = path.read_bytes()

        def exploding_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.nn.serialization.np.savez", exploding_savez
        )
        with pytest.raises(OSError, match="disk full"):
            save_weights(small_net(rng=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        target = small_net(rng=3)
        load_weights(target, path)
        assert np.array_equal(
            source.get_flat_params(), target.get_flat_params()
        )
