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

The gradient oracle is the model's one program
(:class:`~repro.nn.supervised.SupervisedModel`), whose layers carry a
leading worker axis.  :meth:`Federation.gradient_all` runs it over the
selected workers at once, their batches gathered from the store in one
``np.take``; workers whose shards are shorter than the batch are grouped
by batch length, one program call per group.
:meth:`Federation.gradient` runs it for one worker (``R = 1``), reading
the worker's row with ``next_batch``.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.data.loader import SampleStore
from repro.metrics.history import TrainingHistory
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
        store: SampleStore | None = None,
    ):
        """``store``, when given, already holds the workers' datasets in
        edge order (the population binder builds it at its provider's
        width, each slot on its client's stream); otherwise worker ``w``
        samples from ``child_seed(seed, "sampler", w)``."""
        if not edge_partitions or any(not edge for edge in edge_partitions):
            raise ValueError("edge_partitions must be a non-empty list of "
                             "non-empty worker lists")
        self.model = model
        self.test_set = test_set
        self.batch_size = check_positive_int(batch_size, "batch_size")
        if store is None:
            datasets = [worker for edge in edge_partitions for worker in edge]
            streams = child_seeds(
                seed, "sampler", ids=np.arange(len(datasets))
            )
            store = SampleStore(
                datasets,
                batch_size,
                [np.random.default_rng(stream) for stream in streams.tolist()],
            )
        self.store = store
        self._initial_params = model.get_flat_params()
        # Workers of an edge occupy a contiguous row block in the stacked
        # (num_workers, dim) state, so each edge's rows are a slice.
        self.edge_slices: list[slice] = []
        start = 0
        for edge in edge_partitions:
            self.edge_slices.append(slice(start, start + len(edge)))
            start += len(edge)
        self.refresh_weights()

        # The model is the program every gradient runs; the e2e
        # benchmark's tracing wraps it under this name.
        self._engine = model

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

        ``out``, when given, receives the gradient in place.  No run
        path calls this: it is the R = 1 reference that the tests and
        ``benchmarks/bench_batched.py`` check :meth:`gradient_all`
        against.
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

        One program call when every batch length agrees; otherwise one
        call per batch length, shortest first.  Every mini-batch equals
        the one :meth:`gradient` would draw.
        """
        params = np.asarray(params)
        if self.store.uniform:
            return self._run(params, rows, out)
        selected = np.arange(self.num_workers)[rows]
        lengths = self.store.batch[selected]
        losses = np.empty(selected.size)
        for length in np.unique(lengths).tolist():
            group = lengths == length
            losses[group] = self._run(params, selected[group], out)
        return losses

    def _run(self, params, rows, out) -> np.ndarray:
        xs, ys = self.store.gather(rows)
        if isinstance(rows, slice):
            return self.model.gradient_all(params[rows], xs, ys, out[rows])
        # An index selection's rows are not a view of ``out``: the program
        # fills a fresh block, which is scattered back.
        grads = np.empty((len(rows), out.shape[1]), dtype=out.dtype)
        losses = self.model.gradient_all(params[rows], xs, ys, grads)
        out[rows] = grads
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
