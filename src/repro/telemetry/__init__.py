"""Observability for the federated runtime: spans, counters, traffic.

The subsystem has three parts (see ``docs/architecture.md`` § 9):

* :mod:`repro.telemetry.tracer` — the process-local :class:`Tracer`
  with nestable monotonic-clock spans, counters and histograms, plus
  the module-level instrumentation slot that also carries the
  run-event stream of :mod:`repro.monitoring`.  Disabled (the default)
  it is a strict no-op: the hot paths see the shared
  :data:`NULL_TRACER`.
* :mod:`repro.telemetry.ledger` — :class:`CommLedger`, the per-run
  communication accountant attached to every
  :class:`~repro.metrics.history.TrainingHistory`; byte totals are
  closed-form functions of the recorded events.
* :mod:`repro.telemetry.reporting` — renders a traced run as the
  ``repro trace`` per-phase/bytes breakdown.

Typical use::

    from repro import telemetry

    with telemetry.tracing() as tracer:
        history = run_single("HierAdMo", config)
    print(telemetry.format_trace_report(tracer, history))
"""

from repro.telemetry.ledger import BYTES_PER_PARAM, CommLedger
from repro.telemetry.reporting import (
    format_bytes,
    format_fault_summary,
    format_trace_report,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    NullTracer,
    SpanRecord,
    Stats,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SpanRecord",
    "Stats",
    "get_tracer",
    "set_tracer",
    "tracing",
    "CommLedger",
    "BYTES_PER_PARAM",
    "format_trace_report",
    "format_fault_summary",
    "format_bytes",
]
