"""Network-link delay profiles.

Models the three link classes of the paper's testbed:

* worker ↔ edge: 5 GHz WiFi through a home router (fast, low latency),
* edge ↔ router: 1 Gbps Ethernet (negligible),
* anything ↔ cloud: the public Internet across two ISPs (slow, jittery).

Transfer time = RTT/2 + payload/bandwidth, with multiplicative lognormal
jitter on the bandwidth term.  The event engine prices a lost upload's
resends on top of this (:data:`repro.simulation.engine.RETRY_BACKOFF`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_positive

__all__ = ["LinkProfile", "LINK_PRESETS"]


@dataclass(frozen=True)
class LinkProfile:
    """One network link class."""

    name: str
    bandwidth_mbps: float
    rtt_seconds: float
    jitter_sigma: float = 0.2

    def __post_init__(self):
        check_positive(self.bandwidth_mbps, "bandwidth_mbps")
        check_positive(self.rtt_seconds, "rtt_seconds")
        if self.jitter_sigma < 0:
            raise ValueError(
                f"jitter_sigma must be >= 0, got {self.jitter_sigma}"
            )

    def transfer_time(
        self,
        payload_bytes: float,
        rng: np.random.Generator | int | None = None,
    ) -> float:
        """One-way transfer delay for ``payload_bytes``."""
        if payload_bytes < 0:
            raise ValueError(f"payload must be >= 0, got {payload_bytes}")
        rng = make_rng(rng)
        serialization = payload_bytes * 8.0 / (self.bandwidth_mbps * 1e6)
        if self.jitter_sigma > 0:
            serialization *= rng.lognormal(0.0, self.jitter_sigma)
        return self.rtt_seconds / 2.0 + serialization


LINK_PRESETS: dict[str, LinkProfile] = {
    # HUAWEI Honor router X2+, 5 GHz WiFi.
    "wifi_5ghz": LinkProfile("wifi_5ghz", bandwidth_mbps=250.0,
                             rtt_seconds=0.004),
    # 1 Gbps wired Ethernet to the router.
    "ethernet_1gbps": LinkProfile("ethernet_1gbps", bandwidth_mbps=950.0,
                                  rtt_seconds=0.001),
    # Public Internet across two ISP access networks.
    "wan_internet": LinkProfile("wan_internet", bandwidth_mbps=40.0,
                                rtt_seconds=0.045, jitter_sigma=0.35),
}
