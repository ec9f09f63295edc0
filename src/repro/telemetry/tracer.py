"""The instrumentation slot: spans, counters, histograms and run events.

One :class:`Tracer` instance records everything a federated run emits:

* **spans** — nestable timed regions (``with tracer.span("edge_agg"):``)
  measured on the monotonic clock (:func:`time.perf_counter`), recorded
  with their parent span and nesting depth, and aggregated per name into
  :class:`Stats` (count/total/min/max/mean);
* **counters** — monotonically accumulated numbers
  (``tracer.count("eventsim.upload_arrived")``);
* **histograms** — observed values
  (``tracer.observe("adaptive.gamma", 0.42)``), aggregated per name into
  the same :class:`Stats`.

The same slot carries the run-event stream: ``tracer.emit(kind, ...)``
hands one event to the attached
:class:`~repro.monitoring.monitor.RunMonitor` hub, and
``tracer.monitored`` says whether one is attached.  Instrumented code
fetches the slot once per function with :func:`get_tracer` and guards
event payloads on ``monitored``, spans-only work on ``enabled``.

Both halves are *off by default*.  The slot starts as
:data:`NULL_TRACER`, whose ``span()`` returns one shared no-op context
manager and whose ``count``/``observe``/``emit`` do nothing — no dict
churn, no allocation, no clock reads — so instrumented hot paths cost
one attribute lookup when nothing is recording.  Code that instruments
a *per-oracle-call* region additionally guards on ``tracer.enabled`` so
the disabled path executes zero extra context managers (see
``repro.nn.supervised``); per-iteration regions just use
``with get_tracer().span(...)`` directly.

Spans are exception-safe: a span body that raises still records its
duration and unwinds the nesting stack (the ``with`` protocol guarantees
``__exit__`` runs).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "SpanRecord",
    "Stats",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
]


@dataclass(slots=True)
class SpanRecord:
    """One finished span: where time went, and under which parent."""

    name: str
    start: float  # seconds since the tracer's epoch (monotonic clock)
    duration: float  # seconds
    parent: str | None
    depth: int


@dataclass(slots=True)
class Stats:
    """Streaming count/total/min/max/mean of one named series.

    The per-name aggregate of both span durations (``span_stats``) and
    observed values (``histograms``); constant memory, however long the
    run.
    """

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class _Span:
    """Active span context manager (records itself on exit)."""

    __slots__ = ("_tracer", "name", "_start", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str):
        self._tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        stack = tracer._stack
        self._parent = stack[-1] if stack else None
        self._depth = len(stack)
        stack.append(self.name)
        self._start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        duration = tracer._clock() - self._start
        tracer._stack.pop()
        tracer._finish(
            SpanRecord(
                name=self.name,
                start=self._start - tracer._epoch,
                duration=duration,
                parent=self._parent,
                depth=self._depth,
            )
        )
        return False


class _NullSpan:
    """Shared no-op span: the entire disabled-tracing span protocol."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled slot: every operation is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is installed by
    default; hot paths check ``tracer.enabled`` (spans) or
    ``tracer.monitored`` (events), plain class attributes, when even a
    no-op call would be too much.
    """

    __slots__ = ()
    enabled = False
    monitored = False
    # The run-event hub this slot's events reach (none here).
    hub = None
    alerts: tuple = ()

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def emit(self, kind: str, **kwargs) -> None:
        return None


NULL_TRACER = NullTracer()

# Span records a Tracer keeps; later spans only update the aggregates.
MAX_RECORDS = 250_000


class Tracer:
    """Recording tracer: spans, counters and histograms.

    :data:`MAX_RECORDS` bounds the per-span-record memory: once reached,
    further spans still update the per-name aggregate statistics but the
    individual records are dropped (``dropped`` counts them), so a long
    run cannot exhaust memory while its phase breakdown stays exact.

    ``hub`` is the run-event hub a ``monitoring()`` scope attached for
    its duration (``None`` outside one); events stamped through it read
    this tracer's clock, so spans and events share one epoch.
    """

    enabled = True

    def __init__(self, *, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self.records: list[SpanRecord] = []
        self.span_stats: dict[str, Stats] = {}
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Stats] = {}
        self._stack: list[str] = []
        self.hub = None

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        """Timed region as a context manager; nests under the active span."""
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` onto the named counter."""
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Stats()
        histogram.add(float(value))

    def emit(self, kind: str, **kwargs):
        """Hand one run event to the attached hub (no-op without one)."""
        hub = self.hub
        return None if hub is None else hub.emit(kind, **kwargs)

    def elapsed(self) -> float:
        """Seconds on this tracer's clock since its epoch."""
        return self._clock() - self._epoch

    def _finish(self, record: SpanRecord) -> None:
        stats = self.span_stats.get(record.name)
        if stats is None:
            stats = self.span_stats[record.name] = Stats()
        stats.add(record.duration)
        if len(self.records) < MAX_RECORDS:
            self.records.append(record)
        else:
            # Counted rather than silently discarded: the drop total
            # travels with the counters into summaries and reports.
            self.count("telemetry.dropped")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Span records discarded after :data:`MAX_RECORDS` was reached."""
        return int(self.counters.get("telemetry.dropped", 0))

    @property
    def monitored(self) -> bool:
        """Whether a run-event hub is attached."""
        return self.hub is not None

    @property
    def alerts(self):
        """The attached hub's health alerts (empty without one)."""
        hub = self.hub
        return () if hub is None else hub.alerts

    def top_spans(self, k: int = 5) -> list[SpanRecord]:
        """The ``k`` slowest recorded spans, slowest first."""
        return sorted(self.records, key=lambda r: r.duration, reverse=True)[:k]

    def summary(self) -> dict:
        """JSON-able aggregate view: span stats, counters, histograms."""
        return {
            "spans": {
                name: stats.to_dict()
                for name, stats in sorted(self.span_stats.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self.histograms.items())
            },
            "records": len(self.records),
            "dropped": self.dropped,
        }


# ----------------------------------------------------------------------
# The module-level slot
# ----------------------------------------------------------------------
_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The process-wide instrumentation slot.

    A recording :class:`Tracer`, a
    :class:`~repro.monitoring.monitor.RunMonitor` hub when only
    monitoring is on, or :data:`NULL_TRACER` when nothing records.
    """
    return _active


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install ``tracer`` in the slot (None → the null tracer)."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER
    return _active


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scoped tracing: install a tracer, restore the previous slot on exit.

    An open ``monitoring()`` scope's hub is carried onto the tracer for
    the scope, so its events keep flowing.  ::

        with telemetry.tracing() as tracer:
            history = run_single("HierAdMo", config)
        print(tracer.summary())
    """
    installed = tracer if tracer is not None else Tracer()
    previous = _active
    own_hub, installed.hub = installed.hub, previous.hub
    set_tracer(installed)
    try:
        yield installed
    finally:
        installed.hub = own_hub
        set_tracer(previous)
