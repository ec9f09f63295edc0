"""Quantized hierarchical FL (extension after Liu et al. [8]).

The paper's related work highlights hierarchical FL **with quantization**
as the companion communication-efficiency lever.  This module implements
the standard delta-compression scheme on top of HierFAVG:

* every edge round, each worker uploads ``C(x_i − x_sync)`` — the
  compressed *change* since the last synchronization — and the edge
  reconstructs ``x_sync + Σ wᵢ·C(Δᵢ)``;
* every cloud round, each edge likewise uploads its compressed delta.

With an unbiased compressor (the uniform quantizer) the aggregation
remains unbiased; with top-k the scheme is biased but transmits a small
fraction of the payload.  ``uplink_payload_bytes`` accumulates the exact
wire bytes so the timing experiments can trade accuracy against
simulated wall-clock.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.hierarchical import HierFAVG
from repro.compression import Compressor, NoCompression
from repro.core.federation import Federation

__all__ = ["QuantizedHierFAVG"]


class QuantizedHierFAVG(HierFAVG):
    """HierFAVG with compressed uplink deltas."""

    name = "QuantizedHierFAVG"

    CKPT_ARRAYS = HierFAVG.CKPT_ARRAYS + ("worker_sync", "edge_sync")
    CKPT_VALUES = ("uplink_payload_bytes",)
    # The delta-compression reference row follows the client: a
    # returning client resumes its deltas against its own last sync.
    CLIENT_STATE = ("worker_sync",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 10,
        pi: int = 2,
        compressor: Compressor | None = None,
    ):
        super().__init__(federation, eta=eta, tau=tau, pi=pi)
        self.compressor = (
            compressor if compressor is not None else NoCompression()
        )
        self.uplink_payload_bytes = 0.0

    def config(self) -> dict:
        return {
            **super().config(),
            "compressor": type(self.compressor).__name__,
        }

    def _setup(self) -> None:
        super()._setup()
        # Reference points the deltas are taken against.
        self.worker_sync = self.x.copy()
        self.edge_sync = self.edge_models.copy()
        self.uplink_payload_bytes = 0.0

    def checkpoint_extra(self) -> dict:
        rng = getattr(self.compressor, "rng", None)
        if rng is None:
            return {}
        return {"compressor_rng": rng.bit_generator.state}

    def restore_extra(self, extra: dict) -> None:
        state = extra.get("compressor_rng")
        if state is not None:
            self.compressor.rng.bit_generator.state = state

    def _compressed_average(
        self, weights: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """``Σ wᵢ·C(Δᵢ)`` over the uploaded deltas.

        Their wire bytes go to ``uplink_payload_bytes``; the ledger
        counts the same exchanges at full payload.
        """
        aggregate_delta = np.zeros(self.fed.dim)
        payload = 0.0
        for weight, delta in zip(weights, deltas):
            result = self.compressor.compress(delta)
            payload += result.payload_bytes
            aggregate_delta += weight * result.vector
        self.uplink_payload_bytes += payload
        return aggregate_delta

    def _edge_merge(self, edge: int, rows: slice, outcome) -> None:
        agg, weights = outcome.agg_rows, outcome.agg_weights
        x, sync = self.x[rows], self.worker_sync[rows]
        aggregate_delta = self._compressed_average(weights, x[agg] - sync[agg])
        # Sync points diverge under partial redistribution, so
        # reconstruct against the weighted sync average.
        edge_model = weights @ sync[agg] + aggregate_delta
        self.edge_models[edge] = edge_model
        x[outcome.receivers] = edge_model
        sync[outcome.receivers] = edge_model

    def _cloud_merge(self, outcome) -> None:
        agg, weights = outcome.agg_rows, outcome.agg_weights
        models = self._cloud_upload("cloud.models", self.edge_models)
        aggregate_delta = self._compressed_average(
            weights, models[agg] - self.edge_sync[agg]
        )
        # As on the edge tier, sync points can diverge under faults —
        # reconstruct against the weighted sync average.
        global_model = weights @ self.edge_sync[agg] + aggregate_delta
        self.edge_models[outcome.receivers] = global_model
        self.edge_sync[outcome.receivers] = global_model
        workers = self._cloud_push(outcome.receivers)
        self.x[workers] = global_model
        self.worker_sync[workers] = global_model
