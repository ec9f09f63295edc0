"""Device compute-delay profiles.

The paper's §V-D samples per-iteration computation delays on real devices
(an Intel i3 laptop and three Android phones as workers, a MacBook Pro as
the edge node, a GPU tower server as the cloud).  We model each device as
a lognormal per-operation delay sampler — heavy-tailed like real mobile
compute traces — with presets whose means follow the rough relative speeds
of those devices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_positive

__all__ = ["DeviceProfile", "DEVICE_PRESETS", "worker_device_pool"]


@dataclass(frozen=True)
class DeviceProfile:
    """Lognormal delay model for one device class.

    ``mean_seconds`` is the mean per-local-iteration training delay;
    ``sigma`` the lognormal shape (0 degenerates to deterministic);
    ``aggregation_scale`` converts a training iteration into one
    aggregation operation on the same hardware (aggregations are cheap
    vector averages).
    """

    name: str
    mean_seconds: float
    sigma: float = 0.25
    aggregation_scale: float = 0.1

    def __post_init__(self):
        check_positive(self.mean_seconds, "mean_seconds")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        check_positive(self.aggregation_scale, "aggregation_scale")

    def _mu(self) -> float:
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  solve for mu.
        return float(np.log(self.mean_seconds) - self.sigma**2 / 2.0)

    def sample_iterations(
        self, count: int, rng: np.random.Generator | int | None = None
    ) -> np.ndarray:
        """Per-iteration compute delays for ``count`` local iterations."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        rng = make_rng(rng)
        if self.sigma == 0:
            return np.full(count, self.mean_seconds)
        return rng.lognormal(self._mu(), self.sigma, size=count)

    def sample_iteration(self, rng: np.random.Generator) -> float:
        """One iteration's compute delay, drawn as a scalar.

        The same value as ``sample_iterations(1, rng)[0]``, leaving
        ``rng`` in the same state, without the array round trip (the
        event engine draws one per worker step).
        """
        if self.sigma == 0:
            return self.mean_seconds
        return rng.lognormal(self._mu(), self.sigma)

    def sample_aggregation(
        self, rng: np.random.Generator | int | None = None
    ) -> float:
        """Delay of one aggregation operation on this device."""
        rng = make_rng(rng)
        if self.sigma == 0:
            return self.mean_seconds * self.aggregation_scale
        return float(
            rng.lognormal(self._mu(), self.sigma) * self.aggregation_scale
        )


# Means loosely calibrated to the relative CPU speeds of the paper's
# hardware on a small-CNN training iteration.
DEVICE_PRESETS: dict[str, DeviceProfile] = {
    "laptop_i3_m380": DeviceProfile("laptop_i3_m380", 0.120),
    "nubia_z17s_sd835": DeviceProfile("nubia_z17s_sd835", 0.100),
    "realme_gt_neo_d1200": DeviceProfile("realme_gt_neo_d1200", 0.055),
    "redmi_k30u_d1000p": DeviceProfile("redmi_k30u_d1000p", 0.065),
    "macbook_pro_i7": DeviceProfile("macbook_pro_i7", 0.030),
    "gpu_tower_2080ti": DeviceProfile("gpu_tower_2080ti", 0.004),
}


def worker_device_pool(num_workers: int) -> list[DeviceProfile]:
    """The paper's four worker devices, cycled to cover ``num_workers``."""
    pool = [
        DEVICE_PRESETS["laptop_i3_m380"],
        DEVICE_PRESETS["nubia_z17s_sd835"],
        DEVICE_PRESETS["realme_gt_neo_d1200"],
        DEVICE_PRESETS["redmi_k30u_d1000p"],
    ]
    return [pool[i % len(pool)] for i in range(num_workers)]
