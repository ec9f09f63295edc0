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
from repro.utils.validation import check_positive_int

__all__ = ["CampaignEnergy", "estimate_energy"]

# A WiFi-class device: its power while computing, and the transmit plus
# receive cost of its access link (cellular is several times higher).
ACTIVE_POWER_WATTS = 4.0
RADIO_JOULES_PER_MEGABYTE = 0.6
# The higher per-byte radio cost of long-haul sessions (retransmissions,
# longer radio-active windows) that a two-tier campaign's syncs pay.
WAN_ENERGY_MULTIPLIER = 3.0


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
) -> CampaignEnergy:
    """Expected worker-side energy of a campaign that syncs every ``tau``.

    Workers transmit/receive one payload per sync.  Three-tier syncs
    stay on the LAN to the edge; the edge↔cloud WAN hops do not hit
    worker radios (that is the architecture's energy win).  A ``flat``
    (two-tier) campaign's syncs cross the access network to the cloud
    at :data:`WAN_ENERGY_MULTIPLIER` times the per-byte radio cost.
    """
    check_positive_int(total_iterations, "total_iterations")
    check_positive_int(tau, "tau")
    devices = deployment.worker_devices

    seconds = sum(
        device.mean_seconds * total_iterations for device in devices
    )
    rounds = total_iterations // tau
    megabytes = 2.0 * deployment.payload_bytes / 1e6 * rounds * len(devices)
    return CampaignEnergy(
        compute_joules=seconds * ACTIVE_POWER_WATTS,
        radio_joules=(
            megabytes
            * RADIO_JOULES_PER_MEGABYTE
            * (WAN_ENERGY_MULTIPLIER if flat else 1.0)
        ),
    )
