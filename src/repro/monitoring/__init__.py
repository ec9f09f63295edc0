"""Live run monitoring: event stream, sinks, health alerts, dashboard.

The run-event half of the one instrumentation slot — where the tracer's
spans answer "where did the time go", the event stream answers "is this
run healthy" while it happens.  Both are reached through
:func:`repro.telemetry.get_tracer`.  The stream is the record: the hub
derives no metrics of its own, and every view of a run (the dashboard,
the JSONL file) reads the events.  See ``docs/architecture.md`` §9
for the slot and §13 for the stream schema and monitor lifecycle.
"""

from repro.monitoring.dashboard import render_dashboard
from repro.monitoring.events import (
    ALERT,
    CHECKPOINT_RESTORED,
    CHECKPOINT_SAVED,
    CLOUD_ROUND,
    EDGE_ROUND,
    EVAL,
    RUN_END,
    RUN_START,
    RunEvent,
)
from repro.monitoring.health import (
    Alert,
    DivergenceMonitor,
    FaultBudgetMonitor,
    HealthMonitor,
    MonitorAbort,
    PlateauMonitor,
    QuorumStarvationMonitor,
    StalenessRunawayMonitor,
    default_monitors,
)
from repro.monitoring.monitor import RunMonitor, monitoring
from repro.monitoring.sinks import (
    EventSink,
    JSONLStreamSink,
    RingBufferSink,
    load_events_jsonl,
)

__all__ = [
    "RunEvent",
    "RUN_START",
    "EVAL",
    "EDGE_ROUND",
    "CLOUD_ROUND",
    "ALERT",
    "RUN_END",
    "CHECKPOINT_SAVED",
    "CHECKPOINT_RESTORED",
    "EventSink",
    "RingBufferSink",
    "JSONLStreamSink",
    "load_events_jsonl",
    "Alert",
    "MonitorAbort",
    "HealthMonitor",
    "DivergenceMonitor",
    "PlateauMonitor",
    "QuorumStarvationMonitor",
    "StalenessRunawayMonitor",
    "FaultBudgetMonitor",
    "default_monitors",
    "RunMonitor",
    "monitoring",
    "render_dashboard",
]
