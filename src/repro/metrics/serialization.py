"""Save/load training histories as JSON, and span traces as JSONL.

Experiment campaigns (the benches, long sweeps) archive their histories
to disk so tables can be re-rendered without re-running training.
Traced runs additionally dump their tracer as JSONL — one span record,
counter or histogram per line, each in the run-event envelope of the
monitoring stream — for offline analysis.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.metrics.history import TrainingHistory
from repro.monitoring.events import RunEvent
from repro.monitoring.sinks import load_events_jsonl
from repro.telemetry.ledger import CommLedger
from repro.telemetry.tracer import SpanRecord, Tracer
from repro.utils.io import atomic_write_text

__all__ = ["history_to_dict", "history_from_dict", "save_history",
           "load_history", "save_trace_jsonl", "load_trace_jsonl"]


def history_to_dict(history: TrainingHistory) -> dict:
    """Plain-JSON-type dict representation of a history."""
    return {
        "algorithm": history.algorithm,
        "config": history.config,
        "iterations": list(history.iterations),
        "test_accuracy": list(history.test_accuracy),
        "test_loss": list(history.test_loss),
        "train_loss": list(history.train_loss),
        "eval_times": list(history.eval_times),
        "gamma_trace": [
            {str(k): v for k, v in record.items()}
            for record in history.gamma_trace
        ],
        "comm": history.comm.to_dict(),
        "trace_summary": history.trace_summary,
        "fault_summary": history.fault_summary,
        "diverged": history.diverged,
        "diverged_at": history.diverged_at,
        "alerts": list(history.alerts),
        "aborted_by": history.aborted_by,
    }


def history_from_dict(payload: dict) -> TrainingHistory:
    """Inverse of :func:`history_to_dict`.

    Raises :class:`ValueError` on a payload without the ``comm`` ledger
    (a pre-ledger file): the ledger is the only record of its rounds.
    """
    if "comm" not in payload:
        raise ValueError(
            "history payload has no 'comm' ledger; files written before "
            "the communication ledger cannot be loaded"
        )
    history = TrainingHistory(
        algorithm=payload["algorithm"],
        config=dict(payload.get("config", {})),
    )
    history.iterations = [int(t) for t in payload["iterations"]]
    history.test_accuracy = [float(a) for a in payload["test_accuracy"]]
    history.test_loss = [float(v) for v in payload["test_loss"]]
    history.train_loss = [float(v) for v in payload["train_loss"]]
    history.eval_times = [float(v) for v in payload.get("eval_times", [])]
    history.gamma_trace = [
        {int(k): float(v) for k, v in record.items()}
        for record in payload.get("gamma_trace", [])
    ]
    history.comm = CommLedger.from_dict(payload["comm"])
    history.trace_summary = payload.get("trace_summary")
    history.fault_summary = payload.get("fault_summary")
    history.diverged = bool(payload.get("diverged", False))
    diverged_at = payload.get("diverged_at")
    history.diverged_at = None if diverged_at is None else int(diverged_at)
    history.alerts = [dict(alert) for alert in payload.get("alerts", [])]
    aborted_by = payload.get("aborted_by")
    history.aborted_by = None if aborted_by is None else str(aborted_by)
    return history


def save_history(history: TrainingHistory, path: str | Path) -> None:
    """Write one history as pretty-printed JSON (atomically)."""
    atomic_write_text(path, json.dumps(history_to_dict(history), indent=2))


def load_history(path: str | Path) -> TrainingHistory:
    """Read a history previously written by :func:`save_history`."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return history_from_dict(payload)


def save_trace_jsonl(tracer: Tracer, path: str | Path) -> None:
    """Dump a tracer as run events: one meta/span/counter/histogram a line.

    Each line is a :class:`~repro.monitoring.events.RunEvent` envelope,
    so :func:`~repro.monitoring.sinks.load_events_jsonl` reads the file.
    The first is a ``meta`` event (record/drop counts); a ``span``'s
    ``wall_time`` is its start on the tracer's clock.
    """
    events = [RunEvent(
        "meta", data={"records": len(tracer.records), "dropped": tracer.dropped}
    )]
    for record in tracer.records:
        events.append(RunEvent("span", wall_time=record.start, data={
            "name": record.name,
            "duration": record.duration,
            "parent": record.parent,
            "depth": record.depth,
        }))
    for name, value in sorted(tracer.counters.items()):
        events.append(RunEvent("counter", data={"name": name, "value": value}))
    for name, histogram in sorted(tracer.histograms.items()):
        events.append(
            RunEvent("histogram", data={"name": name, **histogram.to_dict()})
        )
    for seq, event in enumerate(events):
        event.seq = seq
    atomic_write_text(path, "".join(event.to_json() + "\n" for event in events))


def load_trace_jsonl(path: str | Path) -> dict:
    """Group a trace dump written by :func:`save_trace_jsonl`.

    Returns ``{"meta": dict, "spans": [SpanRecord], "counters": {name:
    value}, "histograms": {name: summary dict}}``.  Lines are read by
    :func:`~repro.monitoring.sinks.load_events_jsonl`, with its rule for
    a partial final line.
    """
    meta: dict = {}
    spans: list[SpanRecord] = []
    counters: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for event in load_events_jsonl(path):
        data = event.data
        if event.kind == "meta":
            meta = data
        elif event.kind == "span":
            spans.append(SpanRecord(start=event.wall_time, **data))
        elif event.kind == "counter":
            counters[data["name"]] = data["value"]
        elif event.kind == "histogram":
            histograms[data.pop("name")] = data
        else:
            raise ValueError(f"unknown trace record kind {event.kind!r}")
    return {
        "meta": meta,
        "spans": spans,
        "counters": counters,
        "histograms": histograms,
    }

