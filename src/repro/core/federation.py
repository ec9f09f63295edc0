"""Federation runtime: workers, samplers, weights and evaluation.

A :class:`Federation` bundles everything an FL algorithm needs to run:

* a single shared :class:`~repro.nn.supervised.SupervisedModel` used as a
  stateless gradient oracle (parameters are set explicitly before every
  use, so one module instance serves all workers — far cheaper than N
  deep copies and numerically identical),
* one seeded mini-batch sampler per worker,
* the :class:`~repro.topology.Topology` with its aggregation weights,
* the held-out test set for evaluation.

Algorithms keep per-worker *state* as stacked ``(num_workers, dim)`` /
``(num_edges, dim)`` float64 matrices (one row per worker/edge), so every
aggregation helper here is a single ``weights @ matrix`` GEMM and
redistribution is a row-broadcast assignment.  The helpers also accept
plain lists of flat vectors (stacked on the fly) for ad-hoc callers.

The gradient oracle comes in two backends.  :meth:`Federation.gradient`
runs one worker's pass through the shared model; the hot path is
:meth:`Federation.gradient_all`, which evaluates *all* workers in one
batched program over a leading worker axis (see
:mod:`repro.nn.batched` — the whole Table II zoo lowers, including the
conv/pool/batch-norm families) and falls back to the per-worker loop
for models that cannot be lowered (live dropout, custom losses/modules)
or on heterogeneous per-worker batch shapes; the fallback reason is
recorded on :attr:`Federation.lowering_reason` and counted on the
tracer (``worker_step.backend.fallback.<reason>``).  ``backend=``
selects the behaviour: ``"auto"`` (default) batches when possible,
``"loop"`` forces the per-worker loop, ``"batched"`` raises if the
model cannot be lowered.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.data.loader import BatchSampler, FullBatchSampler
from repro.metrics.history import TrainingHistory
from repro.nn.batched import lower_supervised_model
from repro.nn.supervised import SupervisedModel
from repro.telemetry import get_tracer
from repro.topology import Topology
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive_int

__all__ = ["Federation"]


class Federation:
    """Runtime context shared by every FL algorithm in this library."""

    def __init__(
        self,
        model: SupervisedModel,
        edge_partitions: list[list[Dataset]],
        test_set: Dataset,
        *,
        batch_size: int = 64,
        seed: int = 0,
        full_batch: bool = False,
        backend: str = "auto",
    ):
        if not edge_partitions or any(not edge for edge in edge_partitions):
            raise ValueError("edge_partitions must be a non-empty list of "
                             "non-empty worker lists")
        self.model = model
        self.test_set = test_set
        self.topology = Topology.from_partitions(edge_partitions)
        self.batch_size = check_positive_int(batch_size, "batch_size")
        self.streams = RngStreams(seed)

        self.worker_datasets: list[Dataset] = [
            worker for edge in edge_partitions for worker in edge
        ]
        if full_batch:
            self.samplers = [
                FullBatchSampler(ds) for ds in self.worker_datasets
            ]
        else:
            self.samplers = [
                BatchSampler(ds, batch_size, self.streams.get("sampler", i))
                for i, ds in enumerate(self.worker_datasets)
            ]

        self._initial_params = model.get_flat_params()
        # Cached weights.
        self.edge_w = self.topology.edge_weights()
        self.worker_w_in_edge = [
            self.topology.worker_weights(edge)
            for edge in range(self.topology.num_edges)
        ]
        self.global_worker_w = self.topology.global_worker_weights()
        # Workers of an edge occupy a contiguous row block in the stacked
        # (num_workers, dim) state, so each edge's rows are a slice.
        self.edge_slices: list[slice] = []
        start = 0
        for edge in range(self.topology.num_edges):
            stop = start + self.topology.workers_in_edge(edge)
            self.edge_slices.append(slice(start, stop))
            start = stop

        # Batched gradient engine (see module docstring).
        if backend not in ("auto", "batched", "loop"):
            raise ValueError(
                f"backend must be 'auto', 'batched' or 'loop', got {backend!r}"
            )
        self._engine = None
        self.lowering_reason: str | None = None
        if backend != "loop":
            program, reason = lower_supervised_model(model, explain=True)
            if program is not None and not self._stackable():
                program, reason = None, "batches:heterogeneous"
            if program is not None:
                self._engine = program
            else:
                self.lowering_reason = reason
                if backend == "batched":
                    raise ValueError(
                        "backend='batched' but the model cannot be lowered "
                        f"to the batched engine ({reason}); use "
                        "backend='auto' for transparent fallback"
                    )
        # Full-batch samplers always return the same arrays, so their
        # stacked (W, B, ...) tensor is built once and cached.
        self._full_batch_stack: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Worker rebinding (virtual populations)
    # ------------------------------------------------------------------
    def rebind_worker(self, slot, dataset, sampler) -> None:
        """Swap one worker slot's dataset and mini-batch sampler.

        The population layer materializes cohort clients into existing
        worker slots; only the data binding changes — stacked state
        rows, topology position and engine stay put.  Invalidates the
        cached full-batch stack (the slot's arrays changed).
        """
        self.worker_datasets[slot] = dataset
        self.samplers[slot] = sampler
        self._full_batch_stack = None

    def refresh_weights(self) -> None:
        """Recompute aggregation weights from the current datasets.

        Called after rebinding when shard sizes differ across clients:
        the weights then reflect the materialized cohort's sample
        counts (renormalized within edge and globally, the same
        re-weighting ``SampledFedAvg`` applies to its participants).
        """
        partitions = [
            self.worker_datasets[block] for block in self.edge_slices
        ]
        self.topology = Topology.from_partitions(partitions)
        self.edge_w = self.topology.edge_weights()
        self.worker_w_in_edge = [
            self.topology.worker_weights(edge)
            for edge in range(self.topology.num_edges)
        ]
        self.global_worker_w = self.topology.global_worker_weights()

    def _stackable(self) -> bool:
        """True when every worker's batches stack into one (W, B, ...)."""
        sizes = {sampler.batch_size for sampler in self.samplers}
        shapes = {ds.x.shape[1:] for ds in self.worker_datasets}
        return len(sizes) == 1 and len(shapes) == 1

    # ------------------------------------------------------------------
    # Shape shortcuts
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return self.topology.num_edges

    @property
    def num_workers(self) -> int:
        return self.topology.num_workers

    @property
    def dim(self) -> int:
        """Model parameter dimension d."""
        return self._initial_params.size

    @property
    def gradient_backend(self) -> str:
        """Active gradient backend: ``"batched"`` or ``"loop"``."""
        return "loop" if self._engine is None else "batched"

    def initial_params(self) -> np.ndarray:
        """Copy of the shared initial parameter vector x⁰."""
        return self._initial_params.copy()

    def initial_worker_matrix(self) -> np.ndarray:
        """``(num_workers, dim)`` stacked state, every row = x⁰."""
        return np.tile(self._initial_params, (self.num_workers, 1))

    def initial_edge_matrix(self) -> np.ndarray:
        """``(num_edges, dim)`` stacked state, every row = x⁰."""
        return np.tile(self._initial_params, (self.num_edges, 1))

    # ------------------------------------------------------------------
    # Gradient oracle
    # ------------------------------------------------------------------
    def gradient(
        self,
        worker: int,
        params: np.ndarray,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """``(∇F_{i,ℓ}(params), batch loss)`` on worker's next mini-batch.

        ``out``, when given, receives the gradient in place (the stacked
        hot path passes its grad-matrix row to avoid an allocation).
        """
        x, y = self.samplers[worker].next_batch()
        return self.model.gradient(x, y, params, out=out)

    def gradient_all(
        self,
        params: np.ndarray,
        *,
        rows: slice | np.ndarray = slice(None),
        out: np.ndarray,
    ) -> np.ndarray:
        """The selected workers' gradients on their next mini-batches.

        ``params`` is the stacked ``(num_workers, dim)`` parameter
        matrix (one row per worker; a broadcast view works for shared
        parameters).  ``rows`` selects the workers to run (all of them
        by default; an index array on fault-masked iterations): only
        their samplers are consumed and only their ``out`` rows are
        written, each with that worker's gradient.  Returns the
        per-worker batch losses in selection order.

        Uses the batched engine when available, consuming each sampler
        in worker order so the mini-batch streams are identical to the
        per-worker loop; falls back to the loop for non-lowerable
        models or non-finite parameters (whose divergence semantics
        are per-worker).
        """
        params = np.asarray(params)
        if self._engine is not None:
            stacked_params = params[rows]
            if np.isfinite(stacked_params).all():
                xs, ys = self._stacked_batches(rows)
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.count("worker_step.backend.batched")
                grads = out[rows]
                losses = self._engine.gradient_all(
                    stacked_params, xs, ys, grads
                )
                if not isinstance(rows, slice):
                    # An index array gathered a copy; scatter it back.
                    out[rows] = grads
                return losses
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("worker_step.backend.loop")
            if self.lowering_reason is not None:
                tracer.count(
                    f"worker_step.backend.fallback.{self.lowering_reason}"
                )
        workers = np.arange(self.num_workers)[rows]
        losses = np.empty(len(workers))
        for position, worker in enumerate(workers):
            _, losses[position] = self.gradient(
                worker, params[worker], out=out[worker]
            )
        return losses

    def _stacked_batches(
        self, rows: slice | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stack the selected workers' next mini-batches into (R, B, ...)."""
        if isinstance(self.samplers[0], FullBatchSampler):
            if self._full_batch_stack is None:
                self._full_batch_stack = (
                    np.stack([ds.x for ds in self.worker_datasets]),
                    np.stack([ds.y for ds in self.worker_datasets]),
                )
            xs, ys = self._full_batch_stack
            return xs[rows], ys[rows]
        batches = [
            self.samplers[worker].next_batch()
            for worker in np.arange(self.num_workers)[rows]
        ]
        return (
            np.stack([x for x, _ in batches]),
            np.stack([y for _, y in batches]),
        )

    # ------------------------------------------------------------------
    # Aggregation helpers (each one GEMM over stacked state)
    # ------------------------------------------------------------------
    def edge_average(self, edge: int, vectors) -> np.ndarray:
        """Weighted within-edge average Σᵢ (D_{i,ℓ}/Dℓ) vᵢ.

        ``vectors`` is a ``(num_workers, dim)`` matrix (or list of flat
        vectors) indexed by *flat* worker id.
        """
        matrix = np.asarray(vectors)
        return self.worker_w_in_edge[edge] @ matrix[self.edge_slices[edge]]

    def cloud_average_edges(self, vectors) -> np.ndarray:
        """Weighted over-edges average Σℓ (Dℓ/D) vℓ."""
        return self.edge_w @ np.asarray(vectors)

    def global_average_workers(self, vectors) -> np.ndarray:
        """Weighted over-all-workers average Σ (D_{i,ℓ}/D) vᵢℓ."""
        return self.global_worker_w @ np.asarray(vectors)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, params: np.ndarray) -> tuple[float, float]:
        """(test accuracy, test loss) of the model at ``params``.

        A diverged model (non-finite parameters) evaluates to
        ``(0.0, nan)`` without running a forward pass; a finite but
        overflowing forward runs under ``np.errstate`` so the divergence
        guard's final evaluation cannot leak ``RuntimeWarning``s.  Both
        metrics come from one forward pass over the test set.
        """
        with get_tracer().span("eval"):
            if not np.isfinite(params).all():
                return 0.0, float("nan")
            with np.errstate(over="ignore", invalid="ignore"):
                self.model.set_flat_params(params)
                accuracy, loss = self.model.evaluate(
                    self.test_set.x, self.test_set.y
                )
            return accuracy, loss

    def new_history(self, algorithm: str, config: dict) -> TrainingHistory:
        """Fresh history tagged with the run configuration."""
        config = dict(config)
        config.setdefault("num_edges", self.num_edges)
        config.setdefault("num_workers", self.num_workers)
        config.setdefault("batch_size", self.batch_size)
        return TrainingHistory(algorithm=algorithm, config=config)
