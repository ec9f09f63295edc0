"""Deployment energy estimation (extension).

Mobile-FL system papers report device energy alongside wall-clock; the
paper's motivation (keep traffic off the WAN) also has an energy
reading, since radio transmission dominates many mobile energy budgets.
This module estimates a campaign's energy from the same deployment and
schedule parameters the replay uses:

* compute energy = per-iteration compute time × device active power,
* radio energy   = bytes transferred × per-byte transmit/receive cost,

using expectation values (mean delays) rather than sampled ones — energy
budgets are planning numbers, not replay traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulation.engine import AsyncDeployment
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["EnergyModel", "CampaignEnergy", "estimate_energy"]


@dataclass(frozen=True)
class EnergyModel:
    """Power/energy coefficients for one device class.

    ``active_power_watts`` while computing; ``radio_joules_per_megabyte``
    covers transmit+receive on the device's access link (WiFi-class
    defaults; cellular is several times higher).
    """

    active_power_watts: float = 4.0
    radio_joules_per_megabyte: float = 0.6

    def __post_init__(self):
        check_positive(self.active_power_watts, "active_power_watts")
        check_positive(
            self.radio_joules_per_megabyte, "radio_joules_per_megabyte"
        )


@dataclass(frozen=True)
class CampaignEnergy:
    """Total device-side energy of one training campaign (Joules)."""

    compute_joules: float
    radio_joules: float

    @property
    def total_joules(self) -> float:
        return self.compute_joules + self.radio_joules


def estimate_energy(
    deployment: AsyncDeployment,
    total_iterations: int,
    tau: int,
    *,
    flat: bool = False,
    model: EnergyModel | None = None,
    wan_energy_multiplier: float = 3.0,
) -> CampaignEnergy:
    """Expected worker-side energy of a campaign that syncs every ``tau``.

    Workers transmit/receive one payload per sync.  Three-tier syncs
    stay on the LAN to the edge; the edge↔cloud WAN hops do not hit
    worker radios (that is the architecture's energy win).  A ``flat``
    (two-tier) campaign's syncs cross the access network to the cloud;
    ``wan_energy_multiplier`` captures the higher per-byte radio cost of
    long-haul sessions (retransmissions, longer radio-active windows).
    """
    check_positive_int(total_iterations, "total_iterations")
    check_positive_int(tau, "tau")
    check_positive(wan_energy_multiplier, "wan_energy_multiplier")
    model = model if model is not None else EnergyModel()
    devices = deployment.worker_devices

    seconds = sum(
        device.mean_seconds * total_iterations for device in devices
    )
    rounds = total_iterations // tau
    megabytes = 2.0 * deployment.payload_bytes / 1e6 * rounds * len(devices)
    return CampaignEnergy(
        compute_joules=seconds * model.active_power_watts,
        radio_joules=(
            megabytes
            * model.radio_joules_per_megabyte
            * (wan_energy_multiplier if flat else 1.0)
        ),
    )
