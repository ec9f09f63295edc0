"""Federation runtime: workers, batch streams, weights and evaluation.

A :class:`Federation` bundles everything an FL algorithm needs to run:

* a single shared :class:`~repro.nn.supervised.SupervisedModel` used as a
  stateless gradient oracle (parameters are set explicitly before every
  use, so one module instance serves all workers — far cheaper than N
  deep copies and numerically identical),
* one :class:`~repro.data.loader.SampleStore` holding every worker's
  samples and seeded mini-batch stream as one row of fixed-width
  arrays (worker ``w`` samples from ``child_seed(seed, "sampler", w)``),
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
conv/pool/batch-norm families), its inputs gathered from the store in
one ``np.take``.  It falls back to the per-worker loop for models that
cannot be lowered (live dropout, custom losses/modules), and while the
workers' batch lengths differ (a shard shorter than the batch), which
the store re-derives on every bind; the fallback reason is
:attr:`Federation.lowering_reason` and is counted on the tracer
(``worker_step.backend.fallback.<reason>``).  ``backend=`` selects the
behaviour: ``"auto"`` (default) batches when possible, ``"loop"``
forces the per-worker loop, ``"batched"`` raises if the model cannot be
lowered or the initial batches differ in length.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.data.loader import SampleStore
from repro.metrics.history import TrainingHistory
from repro.nn.batched import lower_supervised_model
from repro.nn.supervised import SupervisedModel
from repro.telemetry import get_tracer
from repro.topology import Topology
from repro.utils.rng import child_seeds
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
        backend: str = "auto",
    ):
        if not edge_partitions or any(not edge for edge in edge_partitions):
            raise ValueError("edge_partitions must be a non-empty list of "
                             "non-empty worker lists")
        self.model = model
        self.test_set = test_set
        self.batch_size = check_positive_int(batch_size, "batch_size")
        datasets = [worker for edge in edge_partitions for worker in edge]
        streams = child_seeds(seed, "sampler", ids=np.arange(len(datasets)))
        self.store = SampleStore(
            datasets,
            batch_size,
            [np.random.default_rng(stream) for stream in streams.tolist()],
        )
        self._initial_params = model.get_flat_params()
        # Workers of an edge occupy a contiguous row block in the stacked
        # (num_workers, dim) state, so each edge's rows are a slice.
        self.edge_slices: list[slice] = []
        start = 0
        for edge in edge_partitions:
            self.edge_slices.append(slice(start, start + len(edge)))
            start += len(edge)
        self.refresh_weights()

        # Batched gradient engine (see module docstring).
        if backend not in ("auto", "batched", "loop"):
            raise ValueError(
                f"backend must be 'auto', 'batched' or 'loop', got {backend!r}"
            )
        self._engine, self._refusal = None, None
        if backend != "loop":
            self._engine, self._refusal = lower_supervised_model(
                model, explain=True
            )
            if backend == "batched" and self.lowering_reason is not None:
                raise ValueError(
                    "backend='batched' but the model cannot be lowered "
                    f"to the batched engine ({self.lowering_reason}); use "
                    "backend='auto' for transparent fallback"
                )

    @property
    def worker_datasets(self) -> list[Dataset]:
        """Each worker's samples, as views into the store's rows."""
        return self.store.datasets

    def refresh_weights(self) -> None:
        """Derive the topology and weights from the workers' sample counts.

        Also called after rebinding when shard sizes differ across
        clients: the weights then reflect the materialized cohort's sample
        counts (renormalized within edge and globally, the same
        re-weighting ``SampledFedAvg`` applies to its participants).
        """
        sizes = self.store.size.tolist()
        self.topology = Topology([sizes[block] for block in self.edge_slices])
        self.edge_w = self.topology.edge_weights()
        self.worker_w_in_edge = [
            self.topology.worker_weights(edge)
            for edge in range(self.topology.num_edges)
        ]
        self.global_worker_w = self.topology.global_worker_weights()

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
    def lowering_reason(self) -> str | None:
        """Why :meth:`gradient_all` runs the loop, ``None`` if it batches.

        The model's lowering refusal, or ``"batches:heterogeneous"``
        while the workers' batch lengths differ; ``None`` also when the
        loop was forced.
        """
        if self._engine is None:
            return self._refusal
        return None if self.store.uniform else "batches:heterogeneous"

    @property
    def gradient_backend(self) -> str:
        """Active gradient backend: ``"batched"`` or ``"loop"``."""
        batched = self._engine is not None and self.store.uniform
        return "batched" if batched else "loop"

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
        x, y = self.store.next_batch(worker)
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
        their batch streams advance and only their ``out`` rows are
        written, each with that worker's gradient.  Returns the
        per-worker batch losses in selection order.

        Uses the batched engine when available, gathering every
        selected worker's batch from the store in one call, so the
        mini-batch streams are identical to the per-worker loop; falls
        back to the loop for non-lowerable models, heterogeneous batch
        lengths or non-finite parameters (whose divergence semantics
        are per-worker).
        """
        params = np.asarray(params)
        if self._engine is not None and self.store.uniform:
            stacked_params = params[rows]
            if np.isfinite(stacked_params).all():
                xs, ys = self.store.gather(rows)
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
            reason = self.lowering_reason
            if reason is not None:
                tracer.count(f"worker_step.backend.fallback.{reason}")
        workers = np.arange(self.num_workers)[rows]
        losses = np.empty(len(workers))
        for position, worker in enumerate(workers):
            _, losses[position] = self.gradient(
                worker, params[worker], out=out[worker]
            )
        return losses

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
