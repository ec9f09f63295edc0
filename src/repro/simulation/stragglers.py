"""Straggler injection for the delay simulation (extension).

Real mobile deployments have heavy-tailed delays: a phone throttles, a
WiFi link retransmits.  :class:`StragglerDevice` wraps any
:class:`~repro.simulation.devices.DeviceProfile` so each iteration is,
with probability ``probability``, slowed by ``factor``.  Because an edge
round at quorum 1.0 waits for its last upload, a single straggler stalls
its whole edge — quantifying the paper's motivation for keeping
synchronization local.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.devices import DeviceProfile
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["StragglerDevice", "add_stragglers"]


@dataclass(frozen=True)
class StragglerDevice:
    """A device whose iterations occasionally stall."""

    base: DeviceProfile
    probability: float
    factor: float

    def __post_init__(self):
        if isinstance(self.base, StragglerDevice):
            # Double-wrapping compounds the stall probability invisibly
            # (and ``add_stragglers`` over an already-wrapped pool is
            # always a bug); demand the caller wrap the underlying
            # profile with combined parameters instead.
            raise TypeError(
                "StragglerDevice cannot wrap another StragglerDevice; "
                f"wrap {self.base.base.name!r} with combined parameters "
                "instead"
            )
        check_probability(self.probability, "probability")
        check_positive(self.factor, "factor")

    @property
    def name(self) -> str:
        return f"{self.base.name}+straggler"

    @property
    def mean_seconds(self) -> float:
        """Effective mean including stall events."""
        return self.base.mean_seconds * (
            1.0 + self.probability * (self.factor - 1.0)
        )

    def sample_iterations(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        rng = make_rng(rng)
        delays = self.base.sample_iterations(count, rng)
        stalls = rng.random(count) < self.probability
        delays[stalls] *= self.factor
        return delays

    def sample_iteration(self, rng: np.random.Generator) -> float:
        """``sample_iterations(1, rng)[0]`` as scalar draws."""
        delay = self.base.sample_iteration(rng)
        if rng.random() < self.probability:
            delay *= self.factor
        return delay

    def sample_aggregation(
        self, rng: np.random.Generator | int | None = None
    ) -> float:
        return self.base.sample_aggregation(rng)


def add_stragglers(
    devices: list[DeviceProfile],
    probability: float,
    factor: float,
) -> list[StragglerDevice]:
    """Wrap a worker-device pool with straggler behaviour."""
    return [
        StragglerDevice(device, probability, factor) for device in devices
    ]
