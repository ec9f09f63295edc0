"""Typed records on the live run-event stream.

Every monitored run emits a sequence of :class:`RunEvent` records — the
streaming counterpart of the post-hoc :class:`~repro.telemetry.tracer`
trace.  Six kinds circulate:

* ``run_start`` — one per run: algorithm, config, federation shape,
  planned iterations;
* ``eval`` — one per evaluation point: accuracy, test/train loss and
  the cumulative communication-ledger byte counters at that moment;
* ``edge_round`` — one per edge aggregation: γℓ per edge (adaptive
  algorithms), participants, and — under the event-driven engine — the
  staleness fold counts, quorum wait and forced-closure flag;
* ``cloud_round`` — one per cloud aggregation (stale-upload tally under
  the event-driven engine);
* ``alert`` — one per health-monitor finding (see
  :mod:`repro.monitoring.health`);
* ``checkpoint_saved`` / ``checkpoint_restored`` — one per durable
  snapshot written (path, trigger reason, archive size) and one per
  resume applied (path, iteration resumed from);
* ``run_end`` — one per run: final status (finished / diverged /
  aborted) and totals.

An event is a flat JSON-able envelope: the typed header fields below
plus a free-form ``data`` payload whose keys are stable per kind (the
schema table lives in ``docs/architecture.md`` §13).  ``wall_time`` is
seconds since the channel's epoch — the recording tracer's when tracing
is on, so events and spans share one clock; ``sim_time`` is the
simulated clock of event-driven runs (``None`` for lockstep runs, which
have no time axis while running).  Trace dumps reuse the envelope with
``meta``/``span``/``counter``/``histogram`` kinds
(:func:`repro.metrics.save_trace_jsonl`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = [
    "RUN_START",
    "EVAL",
    "EDGE_ROUND",
    "CLOUD_ROUND",
    "ALERT",
    "CHECKPOINT_SAVED",
    "CHECKPOINT_RESTORED",
    "RUN_END",
    "RunEvent",
]

RUN_START = "run_start"
EVAL = "eval"
EDGE_ROUND = "edge_round"
CLOUD_ROUND = "cloud_round"
ALERT = "alert"
CHECKPOINT_SAVED = "checkpoint_saved"
CHECKPOINT_RESTORED = "checkpoint_restored"
RUN_END = "run_end"

@dataclass(slots=True)
class RunEvent:
    """One record on the run-event stream."""

    kind: str
    seq: int = 0
    wall_time: float = 0.0
    iteration: int = 0
    # "" for run-lifecycle events; "edge" / "cloud" for round events.
    tier: str = ""
    # Simulated clock (event-driven runs only).
    sim_time: float | None = None
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "kind": self.kind,
            "seq": self.seq,
            "wall_time": self.wall_time,
            "iteration": self.iteration,
        }
        if self.tier:
            payload["tier"] = self.tier
        if self.sim_time is not None:
            payload["sim_time"] = self.sim_time
        if self.data:
            payload["data"] = self.data
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunEvent":
        sim_time = payload.get("sim_time")
        return cls(
            kind=str(payload["kind"]),
            seq=int(payload.get("seq", 0)),
            wall_time=float(payload.get("wall_time", 0.0)),
            iteration=int(payload.get("iteration", 0)),
            tier=str(payload.get("tier", "")),
            sim_time=None if sim_time is None else float(sim_time),
            data=dict(payload.get("data", {})),
        )

    def to_json(self) -> str:
        """One-line JSON form (the streaming JSONL wire format)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "RunEvent":
        return cls.from_dict(json.loads(line))
