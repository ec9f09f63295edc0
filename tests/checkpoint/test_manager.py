"""CheckpointManager: scheduling, retention, events, full restore().

Uses the golden-battery federation (600-sample logistic, 2 edges x 2
workers) so every save exercises the real algorithm/federation state
capture path, not a mock.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import AsyncHierAdMo
from repro.checkpoint import (
    CheckpointManager,
    load_resume,
    restore,
)
from repro.checkpoint.format import CheckpointError, list_checkpoints
from repro.core import Federation, HierAdMo
from repro.data import make_synthetic_mnist, partition_xclass, train_test_split
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.monitoring import RingBufferSink, monitoring
from repro.monitoring.events import CHECKPOINT_RESTORED, CHECKPOINT_SAVED
from repro.nn.models import make_logistic_regression

pytestmark = pytest.mark.checkpoint


def build_federation(workers_per_edge=2):
    corpus = make_synthetic_mnist(600, rng=11).flattened()
    train, test = train_test_split(corpus, 0.25, rng=12)
    parts = partition_xclass(train, 2 * workers_per_edge, 3, rng=3)
    edges = [parts[:workers_per_edge], parts[workers_per_edge:]]
    model = make_logistic_regression(train.num_features, 10, rng=4)
    return Federation(model, edges, test, batch_size=16, seed=5)


def make_algorithm(workers_per_edge=2):
    return HierAdMo(
        build_federation(workers_per_edge), eta=0.05, tau=3, pi=2
    )


def make_async_algorithm():
    return AsyncHierAdMo(build_federation(), eta=0.05, tau=3, pi=2)


def names_in(directory):
    return [p.name for p in list_checkpoints(directory)]


@pytest.fixture()
def warm_algorithm():
    """One short-run algorithm whose state a manager can save."""
    algorithm = make_algorithm()
    algorithm.run(3, eval_every=3)
    return algorithm


def save_with_accuracy(manager, algorithm, iteration, accuracy):
    algorithm.history.test_accuracy.append(accuracy)
    return manager.save(
        algorithm,
        iteration=iteration,
        driver={"kind": "lockstep", "state": {
            "iteration": iteration, "running_loss": 0.0, "since_eval": 0,
        }},
        total_iterations=99,
        eval_every=1,
    )


class TestScheduling:
    def test_should_save_periodic(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=5)
        assert [t for t in range(1, 16) if manager.should_save(t)] == [
            5, 10, 15,
        ]

    def test_every_zero_disables_periodic(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        assert not any(manager.should_save(t) for t in range(1, 50))

    def test_load_latest_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None


class TestRetention:
    def test_keep_last_plus_best(self, tmp_path, warm_algorithm):
        manager = CheckpointManager(tmp_path, keep_last=2, keep_best=True)
        accuracies = [(1, 0.9), (2, 0.1), (3, 0.2), (4, 0.3), (5, 0.4)]
        for iteration, accuracy in accuracies:
            save_with_accuracy(
                manager, warm_algorithm, iteration, accuracy
            )
        # Newest two survive, plus the best-accuracy one from round 1.
        assert names_in(tmp_path) == [
            "ckpt-00000001.npz", "ckpt-00000004.npz", "ckpt-00000005.npz",
        ]
        assert manager.saved == 5

    def test_keep_best_disabled(self, tmp_path, warm_algorithm):
        manager = CheckpointManager(tmp_path, keep_last=2, keep_best=False)
        for iteration, accuracy in [(1, 0.9), (2, 0.1), (3, 0.2)]:
            save_with_accuracy(
                manager, warm_algorithm, iteration, accuracy
            )
        assert names_in(tmp_path) == [
            "ckpt-00000002.npz", "ckpt-00000003.npz",
        ]

    def test_accuracy_backfilled_from_manifest(
        self, tmp_path, warm_algorithm
    ):
        first = CheckpointManager(tmp_path, keep_last=2, keep_best=True)
        for iteration, accuracy in [(1, 0.9), (2, 0.1), (3, 0.2)]:
            save_with_accuracy(first, warm_algorithm, iteration, accuracy)
        # A fresh manager over the same directory never saw those
        # accuracies in memory; pruning must recover them from the
        # manifests instead of forgetting the best checkpoint.
        second = CheckpointManager(tmp_path, keep_last=2, keep_best=True)
        save_with_accuracy(second, warm_algorithm, 4, 0.05)
        assert names_in(tmp_path) == [
            "ckpt-00000001.npz", "ckpt-00000003.npz", "ckpt-00000004.npz",
        ]


class TestMonitoringEvents:
    def test_saved_and_restored_events_emitted(self, tmp_path):
        manager = CheckpointManager(tmp_path, every=5)
        sink = RingBufferSink()
        with monitoring(sinks=[sink]):
            make_algorithm().run(10, eval_every=5, checkpoints=manager)
        saved = [e for e in sink.events if e.kind == CHECKPOINT_SAVED]
        assert [e.iteration for e in saved] == [5, 10]
        for event in saved:
            assert Path(event.data["path"]).exists()
            assert event.data["size_bytes"] > 0
            assert event.data["reason"] == "periodic"

        resumed = make_algorithm()
        sink = RingBufferSink()
        with monitoring(sinks=[sink]):
            resumed.run(
                10, eval_every=5, resume_from=manager.load_latest()
            )
        restored = [
            e for e in sink.events if e.kind == CHECKPOINT_RESTORED
        ]
        assert [e.iteration for e in restored] == [10]


class TestApplyValidation:
    def test_wrong_algorithm_rejected(self, tmp_path, warm_algorithm):
        manager = CheckpointManager(tmp_path)
        path = save_with_accuracy(manager, warm_algorithm, 3, 0.5)
        from repro.algorithms import FedAvg

        other = FedAvg(build_federation(), eta=0.05, tau=6)
        with pytest.raises(CheckpointError, match="algorithm"):
            load_resume(path).apply(other)

    def test_wrong_geometry_rejected(self, tmp_path, warm_algorithm):
        manager = CheckpointManager(tmp_path)
        path = save_with_accuracy(manager, warm_algorithm, 3, 0.5)
        wider = make_algorithm(workers_per_edge=3)
        with pytest.raises(CheckpointError, match="geometry"):
            load_resume(path).apply(wider)

    @pytest.mark.parametrize(
        "make, written_by, expected",
        [
            (make_algorithm, "event", "lockstep"),
            (make_async_algorithm, "lockstep", "event"),
        ],
        ids=["lockstep", "event"],
    )
    def test_wrong_driver_kind_rejected(
        self, tmp_path, warm_algorithm, make, written_by, expected
    ):
        manager = CheckpointManager(tmp_path)
        save_with_accuracy(manager, warm_algorithm, 3, 0.5)
        fresh = make()
        restored = manager.load_latest()
        restored.manifest["driver"]["kind"] = written_by
        with pytest.raises(ValueError, match=f"not the '{expected}' driver"):
            fresh.run(6, eval_every=3, resume_from=restored)


class TestRestoreFromConfig:
    CONFIG = ExperimentConfig(
        model="logistic",
        num_samples=240,
        eta=0.05,
        tau=3,
        pi=2,
        total_iterations=12,
        eval_every=4,
    )

    def test_restore_rebuilds_and_resumes_bit_exact(self, tmp_path):
        golden = run_single("HierAdMo", self.CONFIG)
        run_single(
            "HierAdMo",
            self.CONFIG,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=5,
        )
        algorithm, restored = restore(tmp_path)
        assert restored.iteration == 10
        assert algorithm.name == "HierAdMo"
        history = algorithm.run(
            restored.manifest["total_iterations"],
            eval_every=restored.manifest["eval_every"],
            resume_from=restored,
        )
        assert history.iterations == golden.iterations
        assert history.test_accuracy == golden.test_accuracy
        assert history.test_loss == golden.test_loss
        assert np.allclose(
            history.train_loss[1:], golden.train_loss[1:], rtol=1e-8
        )
        assert history.gamma_trace == golden.gamma_trace

    def test_restore_accepts_specific_file(self, tmp_path):
        run_single(
            "HierAdMo",
            self.CONFIG,
            checkpoint_dir=str(tmp_path),
            checkpoint_every=5,
        )
        path = list_checkpoints(tmp_path)[0]
        algorithm, restored = restore(path)
        assert restored.iteration == 5
        assert algorithm.name == "HierAdMo"

    def test_restore_without_config_refuses(self, tmp_path, tmp_path_factory):
        directory = tmp_path_factory.mktemp("no-config")
        manager = CheckpointManager(directory, every=3)
        make_algorithm().run(3, eval_every=3, checkpoints=manager)
        with pytest.raises(CheckpointError, match="config"):
            restore(directory)

    def test_restore_empty_directory_refuses(self, tmp_path):
        with pytest.raises(CheckpointError, match="no usable checkpoint"):
            restore(tmp_path)
