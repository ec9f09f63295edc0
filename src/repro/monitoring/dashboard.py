"""Render a run-event stream as a terminal dashboard.

:func:`render_dashboard` turns a list of
:class:`~repro.monitoring.events.RunEvent` records (typically loaded
from a streaming JSONL file with
:func:`~repro.monitoring.sinks.load_events_jsonl`) into one screenful
of text: header with run status, accuracy/loss sparklines, γ per edge,
per-tier byte totals and rates, a staleness/quorum panel, and the
active alerts.  The ``repro monitor`` CLI calls it in a refresh loop;
it is a pure function of the event list, so tests and notebooks can
call it on a finished stream just as well.
"""

from __future__ import annotations

import math
from collections import Counter

from repro.metrics.ascii_plot import sparkline
from repro.monitoring.events import (
    ALERT,
    CLOUD_ROUND,
    EDGE_ROUND,
    EVAL,
    RUN_END,
    RUN_START,
    RunEvent,
)
from repro.telemetry.reporting import format_bytes

__all__ = ["MIN_WIDTH", "render_dashboard"]

_SPARK_SEVERITY = {"critical": "!!", "warning": " !"}

# Columns a sparkline row spends on its label: ``accuracy  `` for the
# eval series; ``  edge NNN `` plus the latest γ, with room to spare,
# for a γ row.
_SERIES_LABEL = 10
_GAMMA_LABEL = 24

# The narrowest dashboard: every sparkline keeps both ends of its
# series, which takes two columns.
MIN_WIDTH = _GAMMA_LABEL + 2


def _downsample(values: list[float], width: int) -> list[float]:
    """Stride-sample to at most ``width`` (>= 2) points, keeping ends."""
    if len(values) <= width:
        return values
    step = (len(values) - 1) / (width - 1)
    return [values[round(i * step)] for i in range(width)]


def _fmt(value, spec: str = ".4f") -> str:
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "--"
    return format(value, spec)


def _clock_line(evals: list[RunEvent]) -> str:
    if not evals:
        return ""
    last = evals[-1]
    parts = [f"wall {last.wall_time:.1f}s"]
    if last.sim_time is not None:
        parts.append(f"sim {last.sim_time:.1f}s")
    return "  ".join(parts)


def _rate_suffix(evals: list[RunEvent], key: str) -> str:
    """Byte rate over the last eval interval, on the sim clock if present."""
    if len(evals) < 2:
        return ""
    prev, last = evals[-2], evals[-1]
    if last.sim_time is not None and prev.sim_time is not None:
        dt = last.sim_time - prev.sim_time
    else:
        dt = last.wall_time - prev.wall_time
    db = (last.data.get(key) or 0) - (prev.data.get(key) or 0)
    if dt <= 0:
        return ""
    return f"  ({format_bytes(db / dt)}/s)"


def render_dashboard(events: list[RunEvent], width: int = 64) -> str:
    """One screenful of dashboard text for the given event stream.

    ``width`` (at least :data:`MIN_WIDTH`) sizes the rules and the
    sparklines, and every row is cut to it.
    """
    if width < MIN_WIDTH:
        raise ValueError(f"width must be >= {MIN_WIDTH}, got {width}")
    if not events:
        return "(no events yet)\n"

    start = next((e for e in events if e.kind == RUN_START), None)
    end = next((e for e in events if e.kind == RUN_END), None)
    evals = [e for e in events if e.kind == EVAL]
    edge_rounds = [e for e in events if e.kind == EDGE_ROUND]
    cloud_rounds = [e for e in events if e.kind == CLOUD_ROUND]
    alerts = [e for e in events if e.kind == ALERT]

    lines: list[str] = []
    rule = "─" * width

    # Header -----------------------------------------------------------
    algorithm = (start.data.get("algorithm") if start else None) or "run"
    status = end.data.get("status", "finished") if end else "running"
    if end and end.data.get("aborted_by"):
        status = f"aborted by {end.data['aborted_by']}"
    iteration = max((e.iteration for e in events), default=0)
    total = start.data.get("total_iterations") if start else None
    progress = f"iter {iteration}" + (f"/{total}" if total else "")
    lines.append(f"{algorithm} · {status} · {progress}")
    clock = _clock_line(evals)
    if clock:
        lines.append(clock)
    lines.append(rule)

    # Accuracy / loss sparklines --------------------------------------
    accuracies = [e.data.get("accuracy") for e in evals]
    accuracies = [float(a) for a in accuracies if a is not None]
    if accuracies:
        spark = sparkline(_downsample(accuracies, width - _SERIES_LABEL))
        lines.append(f"accuracy  {spark}")
        lines.append(
            f"  latest {_fmt(accuracies[-1])}   best {_fmt(max(accuracies))}"
        )
    train_losses = [e.data.get("train_loss") for e in evals]
    train_losses = [float(v) for v in train_losses if v is not None]
    if any(math.isfinite(v) for v in train_losses):
        spark = sparkline(_downsample(train_losses, width - _SERIES_LABEL))
        finite = [v for v in train_losses if math.isfinite(v)]
        lines.append(f"trainloss {spark}")
        lines.append(f"  latest {_fmt(finite[-1])}")
    lines.append(rule)

    # γ per edge -------------------------------------------------------
    gamma_series: dict[str, list[float]] = {}
    for event in edge_rounds:
        for edge, gamma in (event.data.get("gammas") or {}).items():
            gamma_series.setdefault(str(edge), []).append(float(gamma))
    if gamma_series:
        lines.append("gamma per edge")
        for edge in sorted(gamma_series, key=lambda k: (len(k), k))[:8]:
            series = gamma_series[edge]
            spark = sparkline(_downsample(series, width - _GAMMA_LABEL))
            lines.append(
                f"  edge {edge:>3} {spark} {series[-1]:.4f}"
            )
        lines.append(rule)

    # Communication ----------------------------------------------------
    if evals:
        last = evals[-1].data
        for key, label in (
            ("worker_edge_bytes", "worker→edge"),
            ("edge_cloud_bytes", "edge→cloud"),
            ("total_bytes", "total"),
        ):
            value = last.get(key)
            if value is None:
                continue
            lines.append(
                f"{label:<12} {format_bytes(value):>12}"
                f"{_rate_suffix(evals, key)}"
            )
        rss = last.get("peak_rss_bytes")
        if rss:
            lines.append(f"{'peak rss':<12} {format_bytes(rss):>12}")
        lines.append(rule)

    # Virtual population ----------------------------------------------
    pop_rounds = [e for e in events if e.kind == "population_round"]
    if pop_rounds:
        last = pop_rounds[-1].data
        lines.append(
            f"population: {last.get('registered', 0)} registered"
            f"  cohort {last.get('cohort', 0)}"
            f"  materialized {last.get('materialized', 0)}"
            f"  carried {last.get('carried', 0)}"
        )
        lines.append(rule)

    # Staleness / quorum ----------------------------------------------
    if edge_rounds or cloud_rounds:
        forced = sum(1 for e in edge_rounds if e.data.get("forced"))
        histogram = Counter(
            int(s)
            for e in edge_rounds
            for s in (e.data.get("staleness") or ())
        )
        stale_uploads = sum(
            int(e.data.get("stale_uploads") or 0) for e in cloud_rounds
        )
        lines.append(
            f"rounds: edge {len(edge_rounds)}  cloud {len(cloud_rounds)}"
            f"  forced {forced}  stale uploads {stale_uploads}"
        )
        if histogram:
            body = "  ".join(
                f"{age}r:{count}" for age, count in sorted(histogram.items())
            )
            lines.append(f"staleness folds  {body}")
        waits = [
            float(e.data["quorum_wait"])
            for e in edge_rounds
            if e.data.get("quorum_wait") is not None
        ]
        if waits:
            lines.append(
                f"quorum wait  mean {sum(waits) / len(waits):.2f}s"
                f"  max {max(waits):.2f}s"
            )
        lines.append(rule)

    # Alerts -----------------------------------------------------------
    if alerts:
        lines.append(f"alerts ({len(alerts)})")
        for event in alerts[-6:]:
            severity = event.data.get("severity", "warning")
            marker = _SPARK_SEVERITY.get(severity, " ?")
            monitor = event.data.get("monitor", "?")
            message = event.data.get("message", "")
            lines.append(
                f"{marker} [{monitor}] iter {event.iteration}: {message}"
            )
    else:
        lines.append("alerts: none")

    return "".join(line[:width] + "\n" for line in lines)
