"""Tests for the energy model."""

import pytest

from repro.simulation import AsyncDeployment, worker_device_pool
from repro.simulation.energy import (
    RADIO_JOULES_PER_MEGABYTE,
    WAN_ENERGY_MULTIPLIER,
    estimate_energy,
)

DEVICES = worker_device_pool(4)
PAYLOAD = 1e6  # 1 MB
DEPLOYMENT = AsyncDeployment(DEVICES, PAYLOAD)


class TestThreeTier:
    def test_components_positive(self):
        energy = estimate_energy(DEPLOYMENT, 100, tau=10)
        assert energy.compute_joules > 0
        assert energy.radio_joules > 0
        assert energy.total_joules == pytest.approx(
            energy.compute_joules + energy.radio_joules
        )

    def test_compute_scales_with_iterations(self):
        a = estimate_energy(DEPLOYMENT, 100, 10)
        b = estimate_energy(DEPLOYMENT, 200, 10)
        assert b.compute_joules == pytest.approx(2 * a.compute_joules)

    def test_radio_scales_with_round_count(self):
        frequent = estimate_energy(DEPLOYMENT, 100, tau=5)
        rare = estimate_energy(DEPLOYMENT, 100, tau=20)
        assert frequent.radio_joules == pytest.approx(
            4 * rare.radio_joules
        )

    def test_known_radio_value(self):
        energy = estimate_energy(AsyncDeployment(DEVICES, 1e6), 10, tau=10)
        # 1 round x 4 workers x 2 MB (up+down) at the per-MB cost.
        assert energy.radio_joules == pytest.approx(
            8.0 * RADIO_JOULES_PER_MEGABYTE
        )

    def test_device_count_validation(self):
        """The worker count is the deployment's device count."""
        three = estimate_energy(
            AsyncDeployment(worker_device_pool(3), PAYLOAD), 10, 5
        )
        four = estimate_energy(DEPLOYMENT, 10, 5)
        assert three.radio_joules == pytest.approx(0.75 * four.radio_joules)


class TestTwoTierComparison:
    def test_two_tier_radio_costlier_at_matched_budget(self):
        """The architecture's energy story: same aggregation budget,
        two-tier radios pay the WAN multiplier."""
        three = estimate_energy(DEPLOYMENT, 200, tau=10)
        two = estimate_energy(DEPLOYMENT, 200, tau=20, flat=True)
        # Two-tier has half the rounds but 3x per-byte cost => 1.5x radio.
        assert two.radio_joules == pytest.approx(1.5 * three.radio_joules)
        assert two.compute_joules == pytest.approx(three.compute_joules)

    def test_wan_multiplier_prices_flat_syncs_only(self):
        """At one schedule, a flat campaign's radios pay the WAN
        multiplier and a three-tier campaign's LAN syncs do not."""
        three = estimate_energy(DEPLOYMENT, 100, 10)
        flat = estimate_energy(DEPLOYMENT, 100, 10, flat=True)
        assert flat.radio_joules == pytest.approx(
            WAN_ENERGY_MULTIPLIER * three.radio_joules
        )
        assert flat.compute_joules == three.compute_joules

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_energy(DEPLOYMENT, 0, 5)
        with pytest.raises(ValueError):
            estimate_energy(DEPLOYMENT, 10, 0)
