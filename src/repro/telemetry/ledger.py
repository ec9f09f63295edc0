"""Communication accounting: one ledger per training run.

Every federated algorithm announces its tier traffic through a
:class:`CommLedger` attached to the run's
:class:`~repro.metrics.history.TrainingHistory`:

* a **round** is one scheduled synchronization (the paper's "edge
  aggregation" / "cloud aggregation" — what the figures put on the
  x-axis);
* a **transfer** is one flat-vector move over one link: a worker upload,
  an edge download, an edge→cloud upload, …  Rounds fan out into
  transfers (an edge round over ``N`` workers with redistribution is
  ``2·N`` worker↔edge transfers).

Bytes are *derived*, never stored: every transfer moves exactly
``dim × bytes_per_param × payload_multiplier`` bytes (the model vector,
scaled by the algorithm's declared payload — 2.0 for momentum shippers
that move model *and* momentum state).  Because
``worker_edge_bytes``/``edge_cloud_bytes`` are closed-form properties of
the event counters, the byte totals can never drift from the events:

    bytes = events × dim × bytes_per_param × payload_multiplier

Compressed uplinks (``QuantizedHierFAVG``) are the exception that proves
the rule: the ledger still counts their *logical* exchanges at full
payload (that is what the round/traffic comparisons in the paper use),
while the actual wire bytes after compression stay in the algorithm's
own ``uplink_payload_bytes`` accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CommLedger", "BYTES_PER_PARAM"]

# The runtime trains in float64 throughout.
BYTES_PER_PARAM = 8


@dataclass
class CommLedger:
    """Per-run communication accounting across both tiers."""

    dim: int = 0
    bytes_per_param: int = BYTES_PER_PARAM
    payload_multiplier: float = 1.0
    worker_edge_rounds: int = 0
    edge_cloud_rounds: int = 0
    worker_edge_events: int = 0
    edge_cloud_events: int = 0

    def configure(self, *, dim: int, payload_multiplier: float) -> None:
        """Set the payload geometry (called by ``FLAlgorithm.run``)."""
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if payload_multiplier <= 0:
            raise ValueError(
                f"payload_multiplier must be positive, got {payload_multiplier}"
            )
        self.dim = int(dim)
        self.payload_multiplier = float(payload_multiplier)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_worker_edge(self, transfers: int, *, rounds: int = 1) -> None:
        """Record worker↔edge traffic: ``transfers`` vector moves.

        ``rounds`` counts scheduled edge aggregations (0 for incidental
        traffic such as the post-cloud broadcast down to workers).
        """
        self.worker_edge_events += int(transfers)
        self.worker_edge_rounds += int(rounds)

    def record_edge_cloud(self, transfers: int, *, rounds: int = 1) -> None:
        """Record edge↔cloud (or worker↔cloud, for two-tier) traffic."""
        self.edge_cloud_events += int(transfers)
        self.edge_cloud_rounds += int(rounds)

    # ------------------------------------------------------------------
    # Derived quantities (closed form — cannot drift from the events)
    # ------------------------------------------------------------------
    @property
    def vector_bytes(self) -> float:
        """Bytes moved by a single transfer: dim × width × multiplier."""
        return self.dim * self.bytes_per_param * self.payload_multiplier

    @property
    def worker_edge_bytes(self) -> float:
        return self.worker_edge_events * self.vector_bytes

    @property
    def edge_cloud_bytes(self) -> float:
        return self.edge_cloud_events * self.vector_bytes

    @property
    def total_bytes(self) -> float:
        return self.worker_edge_bytes + self.edge_cloud_bytes

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form; bytes included for human readers only."""
        return {
            "dim": self.dim,
            "bytes_per_param": self.bytes_per_param,
            "payload_multiplier": self.payload_multiplier,
            "worker_edge_rounds": self.worker_edge_rounds,
            "edge_cloud_rounds": self.edge_cloud_rounds,
            "worker_edge_events": self.worker_edge_events,
            "edge_cloud_events": self.edge_cloud_events,
            "worker_edge_bytes": self.worker_edge_bytes,
            "edge_cloud_bytes": self.edge_cloud_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CommLedger":
        """Inverse of :meth:`to_dict` (derived bytes are recomputed)."""
        return cls(
            dim=int(payload.get("dim", 0)),
            bytes_per_param=int(payload.get("bytes_per_param", BYTES_PER_PARAM)),
            payload_multiplier=float(payload.get("payload_multiplier", 1.0)),
            worker_edge_rounds=int(payload.get("worker_edge_rounds", 0)),
            edge_cloud_rounds=int(payload.get("edge_cloud_rounds", 0)),
            worker_edge_events=int(payload.get("worker_edge_events", 0)),
            edge_cloud_events=int(payload.get("edge_cloud_events", 0)),
        )
