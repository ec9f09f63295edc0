"""Trace-driven delay simulation (devices, links, timelines)."""

from repro.simulation.devices import (
    DEVICE_PRESETS,
    DeviceProfile,
    worker_device_pool,
)
from repro.simulation.engine import (
    AsyncDeployment,
    Event,
    EventLoopRunner,
    EventQueue,
)
from repro.simulation.events import (
    CloudRoundRecord,
    EdgeRoundRecord,
    EventDrivenSimulator,
    EventSimulation,
)
from repro.simulation.energy import (
    CampaignEnergy,
    estimate_energy,
)
from repro.simulation.links import (
    DEFAULT_RETRY_POLICY,
    LINK_PRESETS,
    LinkProfile,
    RetryPolicy,
)
from repro.simulation.stragglers import StragglerDevice, add_stragglers
from repro.simulation.timeline import Timeline, time_to_accuracy

__all__ = [
    "DeviceProfile",
    "DEVICE_PRESETS",
    "worker_device_pool",
    "LinkProfile",
    "LINK_PRESETS",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "StragglerDevice",
    "add_stragglers",
    "EventDrivenSimulator",
    "EventSimulation",
    "EdgeRoundRecord",
    "CloudRoundRecord",
    "Event",
    "EventQueue",
    "AsyncDeployment",
    "EventLoopRunner",
    "CampaignEnergy",
    "estimate_energy",
    "Timeline",
    "time_to_accuracy",
]
