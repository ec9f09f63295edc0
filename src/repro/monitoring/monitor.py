"""The monitoring hub: event fan-out, metric folding, health checks.

The hub is the run-event half of the one instrumentation slot
(:mod:`repro.telemetry.tracer`).  Instrumented code fetches the slot
with :func:`~repro.telemetry.tracer.get_tracer`, guards on its
``monitored`` flag and calls ``emit``; the default slot,
:data:`~repro.telemetry.tracer.NULL_TRACER`, answers ``monitored =
False`` and an ``emit`` that does nothing, so an unmonitored run takes
one attribute check per instrumentation point and stays bit-exact
(emission only ever *reads* algorithm state).

A live :class:`RunMonitor` does three things per event, in order:

1. folds the event into its :class:`~repro.monitoring.registry.MetricsRegistry`
   (latest accuracy/loss gauges, per-tier round counters, γ per edge,
   byte totals);
2. fans the event out to every sink;
3. offers the event to each health monitor; any returned
   :class:`~repro.monitoring.health.Alert` is recorded on
   ``monitor.alerts``, dispatched to the sinks as an ``alert`` event,
   counted in the registry, and — for monitors constructed with
   ``abort=True`` — escalated as :class:`MonitorAbort` so the run
   drivers can stop cleanly.  ``run_end`` events never escalate: the
   run is already over.

Use the :func:`monitoring` context manager to open a scope: it attaches
the hub to the active recording tracer (events then read the tracer's
clock, one epoch for spans and events) or, with tracing off, puts the
hub itself in the slot::

    with monitoring(sinks=[JSONLStreamSink("run.jsonl")],
                    monitors=default_monitors()) as monitor:
        history = algorithm.run()
    print(monitor.registry.exposition())
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.monitoring.events import ALERT, RUN_END, RunEvent
from repro.monitoring.health import Alert, HealthMonitor, MonitorAbort
from repro.monitoring.registry import MetricsRegistry
from repro.monitoring.sinks import EventSink
from repro.telemetry.tracer import NullTracer, get_tracer, set_tracer

__all__ = ["RunMonitor", "monitoring"]

# Eval-event payload keys folded into same-named gauges.
_EVAL_GAUGES = (
    ("accuracy", "repro_test_accuracy"),
    ("test_loss", "repro_test_loss"),
    ("train_loss", "repro_train_loss"),
    ("worker_edge_bytes", "repro_worker_edge_bytes"),
    ("edge_cloud_bytes", "repro_edge_cloud_bytes"),
    ("total_bytes", "repro_total_bytes"),
    ("peak_rss_bytes", "repro_peak_rss_bytes"),
)

# Population-round payload keys folded into same-named gauges.
_POPULATION_GAUGES = (
    ("registered", "repro_population_registered"),
    ("cohort", "repro_population_cohort"),
    ("materialized", "repro_population_materialized"),
    ("carried", "repro_population_carried"),
)


def _stopwatch():
    """Seconds on the monotonic clock since this call."""
    epoch = time.perf_counter()
    return lambda: time.perf_counter() - epoch


class RunMonitor(NullTracer):
    """Live event hub for one monitoring session.

    In the slot by itself it records no spans (the null tracer's
    ``span``/``count``/``observe``) and answers ``monitored``.
    ``clock`` gives each event's ``wall_time``: seconds since the
    channel's epoch; by default since the hub was built.
    """

    monitored = True

    def __init__(
        self,
        sinks: tuple[EventSink, ...] | list[EventSink] = (),
        monitors: tuple[HealthMonitor, ...] | list[HealthMonitor] = (),
        registry: MetricsRegistry | None = None,
        clock=None,
    ):
        self.sinks = list(sinks)
        self.monitors = list(monitors)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.alerts: list[Alert] = []
        self.clock = clock if clock is not None else _stopwatch()
        self._seq = 0

    @property
    def hub(self) -> "RunMonitor":
        return self

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        *,
        iteration: int = 0,
        tier: str = "",
        sim_time: float | None = None,
        **data,
    ) -> RunEvent:
        """Build, fold, fan out and health-check one event.

        Raises :class:`MonitorAbort` when an aborting health monitor
        fires on this event (never for ``run_end``).
        """
        event = RunEvent(
            kind=kind,
            seq=self._seq,
            wall_time=self.clock(),
            iteration=iteration,
            tier=tier,
            sim_time=sim_time,
            data=data,
        )
        self._seq += 1
        self._fold(event)
        for sink in self.sinks:
            sink.emit(event)
        escalate: Alert | None = None
        for health in self.monitors:
            alert = health.observe(event)
            if alert is None:
                continue
            self._record_alert(alert)
            if health.abort and escalate is None:
                escalate = alert
        if escalate is not None and kind != RUN_END:
            raise MonitorAbort(escalate)
        return event

    def close(self) -> None:
        """Close every sink; idempotent."""
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _record_alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        self.registry.inc_counter(
            "repro_alerts_total", labels={"monitor": alert.monitor}
        )
        event = RunEvent(
            kind=ALERT,
            seq=self._seq,
            wall_time=alert.wall_time,
            iteration=alert.iteration,
            data=alert.to_dict(),
        )
        self._seq += 1
        for sink in self.sinks:
            sink.emit(event)

    def _fold(self, event: RunEvent) -> None:
        registry = self.registry
        registry.inc_counter("repro_events_total", labels={"kind": event.kind})
        if event.kind == "eval":
            registry.set_gauge("repro_iteration", event.iteration)
            for key, gauge in _EVAL_GAUGES:
                value = event.data.get(key)
                if value is not None:
                    registry.set_gauge(gauge, value)
        elif event.kind in ("edge_round", "cloud_round"):
            registry.inc_counter(
                "repro_rounds_total", labels={"tier": event.tier or event.kind}
            )
            for edge, gamma in (event.data.get("gammas") or {}).items():
                registry.set_gauge(
                    "repro_gamma", gamma, labels={"edge": edge}
                )
            if event.data.get("forced"):
                registry.inc_counter("repro_forced_closures_total")
            stale = event.data.get("staleness")
            if stale:
                registry.inc_counter("repro_stale_folds_total", len(stale))
            stale_uploads = event.data.get("stale_uploads")
            if stale_uploads:
                registry.inc_counter(
                    "repro_stale_uploads_total", stale_uploads
                )
        elif event.kind == "population_round":
            registry.inc_counter("repro_population_rounds_total")
            for key, gauge in _POPULATION_GAUGES:
                value = event.data.get(key)
                if value is not None:
                    registry.set_gauge(gauge, value)
        elif event.kind == "run_start":
            iterations = event.data.get("total_iterations")
            if iterations is not None:
                registry.set_gauge("repro_total_iterations", iterations)


@contextmanager
def monitoring(
    sinks: tuple[EventSink, ...] | list[EventSink] = (),
    monitors: tuple[HealthMonitor, ...] | list[HealthMonitor] = (),
    registry: MetricsRegistry | None = None,
):
    """Open a fresh :class:`RunMonitor` for the ``with`` body.

    With a recording tracer in the slot the hub is attached to it and
    stamps events on its clock; otherwise the hub goes in the slot.
    Either way the slot is restored and the sinks closed on exit
    (including on exception / :class:`MonitorAbort`).
    """
    active = get_tracer()
    if active.enabled:
        monitor = RunMonitor(sinks, monitors, registry, clock=active.elapsed)
        previous, active.hub = active.hub, monitor
    else:
        monitor = RunMonitor(sinks, monitors, registry)
        set_tracer(monitor)
    try:
        yield monitor
    finally:
        if active.enabled:
            active.hub = previous
        else:
            set_tracer(active)
        monitor.close()
