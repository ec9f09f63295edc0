"""Checkpoint orchestration: when to save, what to keep, how to resume.

A :class:`CheckpointManager` is handed to the run driver
(``FLAlgorithm.run(..., checkpoints=manager)``, on either clock); the
driver asks :meth:`CheckpointManager.should_save` at each round barrier
(every iteration on the lockstep clock, every completed round on the
event clock) and calls :meth:`CheckpointManager.save` on periodic
boundaries and whenever a health monitor raised a fresh alert.  One
save captures, into a single atomic archive
(:mod:`repro.checkpoint.format`):

* the algorithm's declared state (``CKPT_ARRAYS`` matrices, JSON-able
  ``CKPT_VALUES``, and per-class extras such as RNG streams or the
  async event-engine ``state_dict``);
* the federation's sampler RNG cursors and BatchNorm running buffers;
* the attached fault injector's realized-event state (when present);
* the full :class:`~repro.metrics.history.TrainingHistory`, communication
  ledger included;
* the driver's state under ``manifest["driver"]``: ``kind`` names the
  clock (``"lockstep"`` or ``"event"``), and ``state`` holds the
  clock's own state (lockstep: the ``iteration``; event: the engine's
  whole ``state_dict()``) plus the train-loss window shared by both
  clocks (``running_loss`` and ``since_eval``, the sum and count of
  step losses since the last evaluation), so resume restarts at
  exactly the next step.  A run refuses a checkpoint of the other
  clock.

Resume is symmetric: :meth:`CheckpointManager.load_latest` (or
:func:`load_resume` on a specific file) returns a :class:`RestoredRun`
that a driver applies after ``_setup()``, and :func:`restore` rebuilds
the whole federation + algorithm from the manifest's stored experiment
config for runs launched through the experiment builders (the CLI
path).

Retention keeps the newest ``keep_last`` checkpoints plus the one with
the best recorded test accuracy (``keep_best``); everything else is
pruned after each successful save.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path

import numpy as np

from repro.checkpoint.format import (
    CheckpointError,
    latest_checkpoint,
    list_checkpoints,
    read_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.checkpoint.state import (
    federation_state,
    injector_state,
    restore_federation,
    restore_injector,
)
from repro.metrics.serialization import history_from_dict, history_to_dict
from repro.monitoring.events import CHECKPOINT_SAVED
from repro.monitoring.monitor import get_monitor
from repro.utils.validation import check_positive_int

__all__ = ["CheckpointManager", "RestoredRun", "load_resume", "restore"]

_ALGO_PREFIX = "algo:"


@dataclass
class RestoredRun:
    """One loaded checkpoint, ready to apply to a rebuilt run."""

    path: Path
    manifest: dict
    arrays: dict[str, np.ndarray]

    @property
    def iteration(self) -> int:
        return int(self.manifest["iteration"])

    @property
    def driver_kind(self) -> str:
        return str(self.manifest["driver"]["kind"])

    @property
    def driver_state(self) -> dict:
        return self.manifest["driver"]["state"]

    def build_history(self):
        """Reconstruct the history recorded up to the checkpoint."""
        return history_from_dict(self.manifest["history"])

    def apply(self, algorithm) -> None:
        """Restore algorithm + federation + injector state.

        Must run *after* the driver called ``algorithm._setup()`` (the
        snapshot overwrites freshly allocated state in place) and after
        ``faults.reset()`` when an injector is attached.  A population
        binder adopts its carry tables from ``self.arrays`` without
        copying them, so apply a loaded checkpoint once.
        """
        manifest = self.manifest
        if manifest["algorithm"] != algorithm.name:
            raise CheckpointError(
                f"checkpoint is for algorithm {manifest['algorithm']!r}, "
                f"got {algorithm.name!r}"
            )
        geometry = manifest["geometry"]
        fed = algorithm.fed
        actual = {
            "workers": fed.num_workers,
            "edges": fed.num_edges,
            "dim": fed.dim,
        }
        if geometry != actual:
            raise CheckpointError(
                f"checkpoint geometry {geometry} != federation {actual}"
            )
        algo_arrays = {
            name[len(_ALGO_PREFIX):]: array
            for name, array in self.arrays.items()
            if name.startswith(_ALGO_PREFIX)
        }
        algorithm.restore_arrays(algo_arrays)
        algorithm.restore_values(manifest["state"]["values"])
        algorithm.restore_extra(manifest["state"]["extra"])
        # Population rebinding must land between the algorithm arrays
        # (the slot rows already hold the checkpointed cohort's state)
        # and the federation's sampler states (which overwrite the
        # rebound per-client samplers with the exact saved cursors).
        population = getattr(algorithm, "population", None)
        if manifest.get("population") is not None:
            if population is None:
                raise CheckpointError(
                    "checkpoint holds virtual-population state but the "
                    "rebuilt algorithm has no population binder attached"
                )
            population.restore(
                algorithm, manifest["population"], self.arrays
            )
        restore_federation(fed, manifest["federation"], self.arrays)
        if manifest.get("faults") is not None and algorithm.faults is not None:
            restore_injector(
                algorithm.faults, manifest["faults"], self.arrays
            )


class CheckpointManager:
    """Periodic + on-alert checkpointing with retention for one run."""

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 0,
        keep_last: int = 3,
        keep_best: bool = True,
        config=None,
    ):
        self.directory = Path(directory)
        if every:
            check_positive_int(every, "every")
        self.every = int(every)
        self.keep_last = check_positive_int(keep_last, "keep_last")
        self.keep_best = bool(keep_best)
        # Stored into every manifest so `restore()` can rebuild the
        # federation; accepts an ExperimentConfig, a dict, or None.
        if config is not None and is_dataclass(config):
            config = asdict(config)
        self.config = config
        self.saved = 0
        self.last_path: Path | None = None
        # path -> recorded accuracy, for retention (lazily backfilled
        # from manifests when this manager did not write the file).
        self._accuracies: dict[Path, float] = {}

    # ------------------------------------------------------------------
    def should_save(self, iteration: int) -> bool:
        """True on periodic boundaries (``every`` = 0 disables them)."""
        return self.every > 0 and iteration % self.every == 0

    def save(
        self,
        algorithm,
        *,
        iteration: int,
        driver: dict,
        total_iterations: int,
        eval_every: int,
        reason: str = "periodic",
    ) -> Path:
        """Snapshot the complete run state at ``iteration``."""
        history = algorithm.history
        values, extra = algorithm.checkpoint_values(), (
            algorithm.checkpoint_extra()
        )
        arrays = {
            _ALGO_PREFIX + name: array
            for name, array in algorithm.checkpoint_arrays().items()
        }
        fed_values, fed_arrays = federation_state(algorithm.fed)
        arrays.update(fed_arrays)
        population = getattr(algorithm, "population", None)
        pop_values = None
        if population is not None:
            pop_values, pop_arrays = population.state()
            arrays.update(pop_arrays)
        fault_values = None
        if algorithm.faults is not None:
            fault_values, fault_arrays = injector_state(algorithm.faults)
            arrays.update(fault_arrays)
        accuracy = (
            float(history.test_accuracy[-1])
            if history.test_accuracy
            else None
        )
        manifest = {
            "algorithm": algorithm.name,
            "algorithm_class": type(algorithm).__name__,
            "driver": driver,
            "total_iterations": int(total_iterations),
            "eval_every": int(eval_every),
            "state": {"values": values, "extra": extra},
            "federation": fed_values,
            "population": pop_values,
            "faults": fault_values,
            "history": history_to_dict(history),
            "accuracy": accuracy,
            "config": self.config,
            "geometry": {
                "workers": algorithm.fed.num_workers,
                "edges": algorithm.fed.num_edges,
                "dim": algorithm.fed.dim,
            },
            "reason": reason,
        }
        path = write_checkpoint(self.directory, iteration, manifest, arrays)
        self.saved += 1
        self.last_path = path
        self._accuracies[path] = (
            -math.inf if accuracy is None else accuracy
        )
        self._prune()
        monitor = get_monitor()
        if monitor.enabled:
            monitor.emit(
                CHECKPOINT_SAVED,
                iteration=int(iteration),
                path=str(path),
                reason=reason,
                size_bytes=path.stat().st_size,
            )
        return path

    # ------------------------------------------------------------------
    def load_latest(self) -> RestoredRun | None:
        """Newest intact checkpoint in the directory, or ``None``."""
        found = latest_checkpoint(self.directory)
        if found is None:
            return None
        path, manifest, arrays = found
        return RestoredRun(path=path, manifest=manifest, arrays=arrays)

    def load(self, path: str | Path) -> RestoredRun:
        """Load one specific checkpoint file (verified)."""
        return load_resume(path)

    # ------------------------------------------------------------------
    def _accuracy_of(self, path: Path) -> float:
        cached = self._accuracies.get(path)
        if cached is not None:
            return cached
        try:
            accuracy = read_manifest(path).get("accuracy")
        except CheckpointError:
            accuracy = None
        value = -math.inf if accuracy is None else float(accuracy)
        self._accuracies[path] = value
        return value

    def _prune(self) -> None:
        paths = list_checkpoints(self.directory)
        if len(paths) <= self.keep_last:
            return
        keep = set(paths[-self.keep_last:])
        if self.keep_best:
            best = max(paths, key=self._accuracy_of)
            keep.add(best)
        for path in paths:
            if path not in keep:
                try:
                    path.unlink()
                except OSError:
                    continue
                self._accuracies.pop(path, None)


def load_resume(path: str | Path) -> RestoredRun:
    """Load (and verify) one checkpoint file into a :class:`RestoredRun`."""
    path = Path(path)
    manifest, arrays = read_checkpoint(path)
    return RestoredRun(path=path, manifest=manifest, arrays=arrays)


def restore(source: str | Path):
    """Rebuild federation + algorithm from a checkpoint's stored config.

    ``source`` is a checkpoint file or a directory (newest intact file
    wins).  Works for every run whose manager recorded an experiment
    config — the ``repro run`` path — covering all registry algorithms,
    sync and async.  Returns ``(algorithm, restored)``; continue with::

        algorithm, restored = restore("ckpts/")
        algorithm.run(
            restored.manifest["total_iterations"],
            eval_every=restored.manifest["eval_every"],
            resume_from=restored,
        )
    """
    source = Path(source)
    if source.is_dir():
        found = latest_checkpoint(source)
        if found is None:
            raise CheckpointError(f"no usable checkpoint under {source}")
        path, manifest, arrays = found
        restored = RestoredRun(path=path, manifest=manifest, arrays=arrays)
    else:
        restored = load_resume(source)
    config_dict = restored.manifest.get("config")
    if not config_dict:
        raise CheckpointError(
            f"{restored.path}: manifest has no experiment config; "
            "rebuild the run by hand and pass resume_from= to run()"
        )
    # Imported here: repro.experiments pulls in the full algorithm zoo,
    # which plain save-path users never need.
    from repro.experiments.builders import build_algorithm, build_federation
    from repro.experiments.config import ExperimentConfig

    config = ExperimentConfig(**config_dict)
    federation = build_federation(config)
    algorithm = build_algorithm(
        restored.manifest["algorithm"], federation, config
    )
    return algorithm, restored
