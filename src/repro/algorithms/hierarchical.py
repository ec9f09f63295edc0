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

    def _edge_model(self, edge: int, fresh: np.ndarray) -> np.ndarray:
        """The edge model an edge round stores and redistributes."""
        return fresh

    def _edge_merge(self, edge: int, rows: slice, outcome) -> None:
        x = self.x[rows]
        edge_model = self._edge_model(
            edge, outcome.agg_weights @ x[outcome.agg_rows]
        )
        self.edge_models[edge] = edge_model
        x[outcome.receivers] = edge_model

    def _cloud_merge(self, outcome) -> None:
        models = self._cloud_upload("cloud.models", self.edge_models)
        global_model = outcome.agg_weights @ models[outcome.agg_rows]
        self.edge_models[outcome.receivers] = global_model
        self.x[self._cloud_push(outcome.receivers)] = global_model


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

    def _edge_model(self, edge: int, fresh: np.ndarray) -> np.ndarray:
        if self._cloud_pending[edge]:
            # Fold in the cloud model the workers never received.
            self._cloud_pending[edge] = False
            return 0.5 * (fresh + self.edge_models[edge])
        return fresh

    def _cloud_merge(self, outcome) -> None:
        """HierFAVG's cloud rule, stopping at the edges."""
        models = self._cloud_upload("cloud.models", self.edge_models)
        self.edge_models[outcome.receivers] = (
            outcome.agg_weights @ models[outcome.agg_rows]
        )
        # Only edges whose stored model took the aggregate hold a cloud
        # model to fold in; dark, download-failed and skipped-round edges
        # keep what they had.
        for edge in np.arange(self.fed.num_edges)[outcome.receivers]:
            self._cloud_pending[edge] = True
