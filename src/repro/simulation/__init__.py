"""Trace-driven delay simulation (devices, links, the event clock)."""

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
    time_to_accuracy,
)
from repro.simulation.energy import (
    CampaignEnergy,
    estimate_energy,
)
from repro.simulation.links import LINK_PRESETS, LinkProfile
from repro.simulation.stragglers import StragglerDevice, add_stragglers

__all__ = [
    "DeviceProfile",
    "DEVICE_PRESETS",
    "worker_device_pool",
    "LinkProfile",
    "LINK_PRESETS",
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
    "time_to_accuracy",
]
