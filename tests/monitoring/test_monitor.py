"""Tests for the monitoring hub and its place in the instrumentation slot."""

import math

import pytest

from repro.monitoring import (
    ALERT,
    EVAL,
    RUN_END,
    DivergenceMonitor,
    MonitorAbort,
    PlateauMonitor,
    RingBufferSink,
    RunMonitor,
    monitoring,
)
from repro.monitoring.health import PATIENCE
from repro.telemetry import NULL_TRACER, get_tracer, set_tracer

pytestmark = pytest.mark.monitoring


class TestEmit:
    def test_sequenced_fan_out(self):
        sink_a, sink_b = RingBufferSink(), RingBufferSink()
        hub = RunMonitor(sinks=[sink_a, sink_b])
        hub.emit("run_start", algorithm="X")
        hub.emit(EVAL, iteration=10, accuracy=0.5)
        for sink in (sink_a, sink_b):
            events = sink.snapshot()
            assert [e.kind for e in events] == ["run_start", EVAL]
            assert [e.seq for e in events] == [0, 1]
        assert events[1].data == {"accuracy": 0.5}

    def test_wall_time_monotone(self):
        hub = RunMonitor(sinks=[sink := RingBufferSink()])
        hub.emit(EVAL)
        hub.emit(EVAL)
        first, second = sink.snapshot()
        assert 0.0 <= first.wall_time <= second.wall_time


class TestAlerts:
    def test_alert_recorded_and_dispatched(self):
        sink = RingBufferSink()
        hub = RunMonitor(sinks=[sink], monitors=[PlateauMonitor()])
        for t in range(PATIENCE + 1):
            hub.emit(EVAL, iteration=10 * t, accuracy=0.5)
        assert len(hub.alerts) == 1
        assert hub.alerts[0].monitor == "plateau"
        kinds = [e.kind for e in sink.snapshot()]
        assert kinds == [EVAL] * (PATIENCE + 1) + [ALERT]

    def test_aborting_monitor_escalates(self):
        hub = RunMonitor(monitors=[DivergenceMonitor(abort=True)])
        with pytest.raises(MonitorAbort) as excinfo:
            hub.emit(EVAL, iteration=5, train_loss=math.inf)
        assert excinfo.value.alert.monitor == "divergence"
        # The alert is still on record despite the escalation.
        assert len(hub.alerts) == 1

    def test_run_end_never_escalates(self):
        from repro.monitoring import HealthMonitor

        class AlwaysAlert(HealthMonitor):
            name = "always"

            def observe(self, event):
                return self._alert(event, "fired")

        hub = RunMonitor(monitors=[AlwaysAlert(abort=True)])
        hub.emit(RUN_END, status="finished")  # must not raise
        assert len(hub.alerts) == 1


class TestActiveInstance:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.monitored is False
        assert NULL_TRACER.alerts == ()
        assert NULL_TRACER.emit(EVAL, accuracy=1.0) is None

    def test_set_and_reset(self):
        hub = RunMonitor()
        set_tracer(hub)
        try:
            assert get_tracer() is hub
            # Alone in the slot the hub answers events, records no spans.
            assert hub.monitored and not hub.enabled
            with hub.span("edge_agg"):
                pass
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_context_manager_installs_and_restores(self):
        sink = RingBufferSink()
        with monitoring(sinks=[sink]) as hub:
            assert get_tracer() is hub
            get_tracer().emit(EVAL, accuracy=0.1)
        assert get_tracer() is NULL_TRACER
        assert sink.emitted == 1

    def test_context_manager_restores_on_abort(self):
        with pytest.raises(MonitorAbort):
            with monitoring(monitors=[DivergenceMonitor(abort=True)]) as hub:
                hub.emit(EVAL, train_loss=math.inf)
        assert get_tracer() is NULL_TRACER
