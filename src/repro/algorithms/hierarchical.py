"""Three-tier baseline algorithms without momentum (paper category ②).

* :class:`HierFAVG` — Liu et al. ICC'20 client–edge–cloud FedAvg: plain
  local SGD, edge model averaging every ``τ`` iterations, cloud averaging
  of edge models every ``τ·π`` iterations, full redistribution each time.

* :class:`CFL` — Wang et al. INFOCOM'21 resource-efficient hierarchical
  aggregation.  We implement its communication-saving core: the cloud
  round updates the *edge* models but does not broadcast all the way down
  to workers; workers pick up the cloud value at their next edge round.
  This halves cloud-to-worker broadcasts while staying within a τ-window
  of HierFAVG's trajectory, matching the near-identical accuracies the
  paper reports for the two baselines (Table II).  See DESIGN.md §3 for
  this substitution note.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FLAlgorithm
from repro.core.federation import Federation
from repro.monitoring.monitor import get_monitor
from repro.telemetry import get_tracer
from repro.utils.validation import check_positive_int

__all__ = ["HierFAVG", "CFL"]


class HierFAVG(FLAlgorithm):
    """Hierarchical FedAvg (client–edge–cloud)."""

    name = "HierFAVG"

    CKPT_ARRAYS = ("x", "edge_models")

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 10,
        pi: int = 2,
    ):
        super().__init__(federation, eta=eta)
        self.tau = check_positive_int(tau, "tau")
        self.pi = check_positive_int(pi, "pi")

    def config(self) -> dict:
        return {"eta": self.eta, "tau": self.tau, "pi": self.pi}

    def _setup(self) -> None:
        self.x = self.fed.initial_worker_matrix()
        self.edge_models = self.fed.initial_edge_matrix()
        self._grads = np.empty_like(self.x)

    def _local_iteration(self) -> float:
        with get_tracer().span("worker_step"):
            rows = self._iteration_rows()
            mean_loss = self._gradient_iteration(self.x, rows)
            self.x[rows] -= self.eta * self._grads[rows]
            return mean_loss

    def _merge_edge(self, edge: int, fresh: np.ndarray) -> np.ndarray:
        """The edge model an edge round stores and redistributes."""
        return fresh

    def _edge_aggregate(self, t: int) -> None:
        with get_tracer().span("edge_agg"):
            transfers = 0
            for edge, rows, outcome in self._edge_rounds(t):
                x = self.x[rows]
                edge_model = self._merge_edge(
                    edge, outcome.agg_weights @ x[outcome.agg_rows]
                )
                self.edge_models[edge] = edge_model
                x[outcome.receivers] = edge_model
                transfers += outcome.events
            if transfers:
                self.history.comm.record_worker_edge(transfers)

    def _cloud_aggregate(self, t: int, *, to_workers: bool = True):
        """Cloud round at ``t``; returns the selector of receiving edges.

        ``to_workers`` pushes the cloud model on down to the up workers
        under the receiving edges (LAN traffic; CFL skips exactly this).
        A skipped round reaches no edge.
        """
        with get_tracer().span("cloud_agg"):
            outcome = self._cloud_round(t)
            if outcome.skip:
                return np.empty(0, dtype=int)
            models = self._cloud_upload("cloud.models", self.edge_models)
            global_model = outcome.agg_weights @ models[outcome.agg_rows]
            self.edge_models[outcome.receivers] = global_model
            self.history.comm.record_edge_cloud(outcome.events)
            if to_workers:
                workers, reached = self._cloud_receivers(outcome.receivers)
                self.x[workers] = global_model
                if reached:
                    self.history.comm.record_worker_edge(reached, rounds=0)
            return outcome.receivers

    def _step(self, t: int) -> float:
        loss = self._local_iteration()
        monitor = get_monitor()
        if t % self.tau == 0:
            self._edge_aggregate(t)
            if monitor.enabled:
                monitor.emit(
                    "edge_round",
                    iteration=t,
                    tier="edge",
                    edges=self.fed.num_edges,
                )
        if t % (self.tau * self.pi) == 0:
            self._cloud_aggregate(t)
            if monitor.enabled:
                monitor.emit(
                    "cloud_round",
                    iteration=t,
                    tier="cloud",
                    edges=self.fed.num_edges,
                )
        return loss

    def _global_params(self) -> np.ndarray:
        return self.fed.global_average_workers(self.x)


class CFL(HierFAVG):
    """Resource-efficient hierarchical aggregation.

    Differs from HierFAVG in two communication-saving choices:

    1. the cloud round does NOT broadcast to workers — only the edge
       models are synchronized; workers receive the merged value at the
       next edge round, and
    2. each edge round pulls workers toward a blend of the fresh edge
       average and the edge's stored (cloud-synchronized) model, so the
       cloud information still propagates.
    """

    name = "CFL"

    CKPT_VALUES = ("_cloud_pending",)

    def _setup(self) -> None:
        super()._setup()
        self._cloud_pending = [False] * self.fed.num_edges

    def _merge_edge(self, edge: int, fresh: np.ndarray) -> np.ndarray:
        if self._cloud_pending[edge]:
            # Fold in the cloud model the workers never received.
            self._cloud_pending[edge] = False
            return 0.5 * (fresh + self.edge_models[edge])
        return fresh

    def _cloud_aggregate(self, t: int):
        received = super()._cloud_aggregate(t, to_workers=False)
        # Only edges whose stored model took the aggregate hold a cloud
        # model to fold in; dark, download-failed and skipped-round edges
        # keep what they had.
        for edge in np.arange(self.fed.num_edges)[received]:
            self._cloud_pending[edge] = True
        return received
