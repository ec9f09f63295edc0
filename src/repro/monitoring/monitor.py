"""The monitoring hub: event stamping, fan-out and health checks.

The hub is the run-event half of the one instrumentation slot
(:mod:`repro.telemetry.tracer`).  Instrumented code fetches the slot
with :func:`~repro.telemetry.tracer.get_tracer`, guards on its
``monitored`` flag and calls ``emit``; the default slot,
:data:`~repro.telemetry.tracer.NULL_TRACER`, answers ``monitored =
False`` and an ``emit`` that does nothing, so an unmonitored run takes
one attribute check per instrumentation point and stays bit-exact
(emission only ever *reads* algorithm state).

A live :class:`RunMonitor` does two things per event, in order:

1. stamps it (sequence number and wall time) and fans it out to every
   sink;
2. offers it to each health monitor; any returned
   :class:`~repro.monitoring.health.Alert` is recorded on
   ``monitor.alerts``, dispatched to the sinks as an ``alert`` event
   and — for monitors constructed with ``abort=True`` — escalated as
   :class:`MonitorAbort` so the run drivers can stop cleanly.
   ``run_end`` events never escalate: the run is already over.

The hub keeps no derived metrics: the event stream is the record.
Accuracy, bytes per tier, γ per edge and round counts are fields of
the events (or counts over them), which sinks keep and
:func:`~repro.monitoring.dashboard.render_dashboard` reads; the run's
totals are ``history.comm`` and ``history.gamma_trace``.

Use the :func:`monitoring` context manager to open a scope: it attaches
the hub to the active recording tracer (events then read the tracer's
clock, one epoch for spans and events) or, with tracing off, puts the
hub itself in the slot::

    sink = RingBufferSink()
    with monitoring(sinks=[sink, JSONLStreamSink("run.jsonl")],
                    monitors=default_monitors()) as monitor:
        history = algorithm.run()
    print(render_dashboard(sink.snapshot()))
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.monitoring.events import ALERT, RUN_END, RunEvent
from repro.monitoring.health import Alert, HealthMonitor, MonitorAbort
from repro.monitoring.sinks import EventSink
from repro.telemetry.tracer import NullTracer, get_tracer, set_tracer

__all__ = ["RunMonitor", "monitoring"]


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
        clock=None,
    ):
        self.sinks = list(sinks)
        self.monitors = list(monitors)
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
        """Build, fan out and health-check one event.

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


@contextmanager
def monitoring(
    sinks: tuple[EventSink, ...] | list[EventSink] = (),
    monitors: tuple[HealthMonitor, ...] | list[HealthMonitor] = (),
):
    """Open a fresh :class:`RunMonitor` for the ``with`` body.

    With a recording tracer in the slot the hub is attached to it and
    stamps events on its clock; otherwise the hub goes in the slot.
    Either way the slot is restored and the sinks closed on exit
    (including on exception / :class:`MonitorAbort`).
    """
    active = get_tracer()
    if active.enabled:
        monitor = RunMonitor(sinks, monitors, clock=active.elapsed)
        previous, active.hub = active.hub, monitor
    else:
        monitor = RunMonitor(sinks, monitors)
        set_tracer(monitor)
    try:
        yield monitor
    finally:
        if active.enabled:
            active.hub = previous
        else:
            set_tracer(active)
        monitor.close()
