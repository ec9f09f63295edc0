"""Render a traced run as the ``repro trace`` breakdown tables.

Sections: per-phase wall-clock (where the run's time went, by span
name), the communication ledger (events and bytes per tier), the fault
digest when the run had a plan (:func:`format_fault_summary`, which
``repro faults`` prints on its own), and the top-k slowest individual
spans.  Pure string formatting — all numbers come from the
:class:`~repro.telemetry.tracer.Tracer` and the history's
:class:`~repro.telemetry.ledger.CommLedger` and ``fault_summary``.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.telemetry.tracer import Tracer

__all__ = ["format_trace_report", "format_fault_summary", "format_bytes"]

# Span names printed first, in pipeline order; anything else follows
# alphabetically (oracle.* sub-spans, adapt_gamma, user spans, ...).
PHASE_ORDER = ("worker_step", "edge_agg", "cloud_agg", "eval")


def format_bytes(num: float) -> str:
    """Human binary size (``12.3 MiB``); exact integer bytes below 1 KiB."""
    if num < 1024:
        return f"{num:.0f} B"
    for unit in ("KiB", "MiB", "GiB", "TiB"):
        num /= 1024.0
        if num < 1024:
            return f"{num:.2f} {unit}"
    return f"{num:.2f} PiB"


def _format_rows(header: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return lines


def _phase_section(tracer: Tracer, lines: list[str]) -> None:
    stats = tracer.span_stats
    if not stats:
        lines.append("(no spans recorded)")
        return
    # Share of wall-clock is computed against the top-level spans only,
    # so nested spans (oracle.* inside worker_step) don't double-count.
    top_level_total = sum(
        record.duration for record in tracer.records if record.depth == 0
    )
    ordered = [name for name in PHASE_ORDER if name in stats]
    ordered += sorted(name for name in stats if name not in PHASE_ORDER)
    rows = []
    for name in ordered:
        entry = stats[name]
        share = (
            f"{100.0 * entry.total / top_level_total:5.1f}%"
            if top_level_total > 0
            else "    -"
        )
        rows.append([
            name,
            str(entry.count),
            f"{entry.total:.4f}s",
            f"{entry.mean * 1e3:.3f}ms",
            f"{entry.max * 1e3:.3f}ms",
            share,
        ])
    lines.extend(
        _format_rows(
            ["phase", "count", "total", "mean", "max", "share"], rows
        )
    )
    if tracer.dropped:
        lines.append(
            f"(span record cap reached: {tracer.dropped} records dropped; "
            "aggregates above remain exact)"
        )


def _comm_section(ledger, lines: list[str]) -> None:
    lines.append(
        f"payload: dim={ledger.dim} x {ledger.bytes_per_param} B x "
        f"multiplier {ledger.payload_multiplier:g} = "
        f"{format_bytes(ledger.vector_bytes)} per transfer"
    )
    rows = [
        [
            "worker<->edge",
            str(ledger.worker_edge_rounds),
            str(ledger.worker_edge_events),
            f"{ledger.worker_edge_bytes:.0f}",
            format_bytes(ledger.worker_edge_bytes),
        ],
        [
            "edge<->cloud",
            str(ledger.edge_cloud_rounds),
            str(ledger.edge_cloud_events),
            f"{ledger.edge_cloud_bytes:.0f}",
            format_bytes(ledger.edge_cloud_bytes),
        ],
        [
            "total",
            "",
            str(ledger.worker_edge_events + ledger.edge_cloud_events),
            f"{ledger.total_bytes:.0f}",
            format_bytes(ledger.total_bytes),
        ],
    ]
    lines.extend(
        _format_rows(["tier", "rounds", "transfers", "bytes", ""], rows)
    )


def format_fault_summary(fault_summary: dict) -> str:
    """A run's ``fault_summary`` as text: rounds, events, stale uploads.

    Under the zero plan the injector stays inactive and tallies nothing,
    so the digest says no faults were planned instead of a 0/0 tally.
    """
    plan = fault_summary.get("plan")
    if plan is not None and FaultPlan.from_dict(plan).is_zero:
        lines = ["faults: none planned (zero plan), no rounds tallied"]
    else:
        lines = _fault_tally(fault_summary)
    stale = fault_summary.get("stale_uploads")
    if stale:
        lines.append(
            "stale uploads: "
            f"{stale.get('uploads', 0)} "
            f"(from {len(stale.get('workers', ()))} workers) across "
            f"{stale.get('rounds_with_stale', 0)} of "
            f"{stale.get('cloud_rounds', 0)} cloud rounds"
        )
    return "\n".join(lines)


def _fault_tally(fault_summary: dict) -> list[str]:
    """The round outcomes and realized events of an active injector."""
    rounds = fault_summary.get("rounds", {})
    pristine = rounds.get("pristine", 0)
    degraded = rounds.get("degraded", 0)
    lines = [
        f"rounds: {pristine + degraded}/{rounds.get('total', 0)} survived "
        f"({pristine} pristine, {degraded} degraded, "
        f"{rounds.get('skipped', 0)} skipped)"
    ]
    events = fault_summary.get("events", {})
    rows = [
        [name, str(value)]
        for name, value in sorted(events.items())
        if value
    ]
    if rows:
        lines.append("injected events:")
        lines.extend(_format_rows(["event", "count"], rows))
    else:
        lines.append("injected events: none realized")
    return lines


def _top_spans_section(tracer: Tracer, k: int, lines: list[str]) -> None:
    top = tracer.top_spans(k)
    if not top:
        lines.append("(no spans recorded)")
        return
    rows = [
        [
            f"{record.duration * 1e3:.3f}ms",
            record.name,
            f"@{record.start:.4f}s",
            f"under {record.parent}" if record.parent else "top-level",
        ]
        for record in top
    ]
    lines.extend(_format_rows(["duration", "span", "start", "context"], rows))


def format_trace_report(tracer: Tracer, history=None, *, top: int = 5) -> str:
    """The full ``repro trace`` text: phases, bytes, slowest spans.

    ``history``, when given, contributes its communication ledger and
    run header; ``top`` controls the slowest-spans listing length.
    """
    lines: list[str] = []
    if history is not None:
        lines.append(
            f"trace: {history.algorithm}, "
            f"{history.iterations[-1] if history.iterations else 0} iterations"
        )
        lines.append("")
    lines.append("== per-phase wall clock ==")
    _phase_section(tracer, lines)
    if history is not None:
        lines.append("")
        lines.append("== communication ledger ==")
        _comm_section(history.comm, lines)
    if history is not None and history.fault_summary is not None:
        lines.append("")
        lines.append("== fault injection ==")
        lines.append(format_fault_summary(history.fault_summary))
    lines.append("")
    lines.append(f"== top {top} slowest spans ==")
    _top_spans_section(tracer, top, lines)
    if tracer.counters:
        lines.append("")
        lines.append("== counters ==")
        for name, value in sorted(tracer.counters.items()):
            lines.append(f"{name} = {value:g}")
    return "\n".join(lines)
