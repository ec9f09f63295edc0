"""Tests for the trace-driven timelines (Fig. 2 h/l machinery)."""

import numpy as np
import pytest

from repro.metrics import TrainingHistory
from repro.simulation import (
    AsyncDeployment,
    DeviceProfile,
    LinkProfile,
    Timeline,
    time_to_accuracy,
    worker_device_pool,
)
from repro.topology import Topology

PAYLOAD = 4e6  # 4 MB model: large enough that WAN serialization matters


def three_tier(payload_multiplier=1.0):
    topo = Topology.uniform(2, 2, 100)
    return Timeline(
        topo, AsyncDeployment(worker_device_pool(4), PAYLOAD * payload_multiplier)
    )


def two_tier(payload_multiplier=1.0):
    topo = Topology.uniform(2, 2, 100)
    return Timeline(
        topo,
        AsyncDeployment(worker_device_pool(4), PAYLOAD * payload_multiplier),
        flat=True,
    )


def fixed_delays(flat=False):
    """Deterministic devices and links, so a replay has a closed form."""
    deployment = AsyncDeployment(
        [DeviceProfile("worker", 0.1, sigma=0.0)] * 4,
        1e6,
        edge_device=DeviceProfile("edge", 0.03, sigma=0.0),
        cloud_device=DeviceProfile("cloud", 0.004, sigma=0.0),
        lan=LinkProfile("lan", 100.0, 0.002, jitter_sigma=0.0),
        wan=LinkProfile("wan", 10.0, 0.05, jitter_sigma=0.0),
    )
    return Timeline(Topology([[10], [10, 10, 10]]), deployment, flat=flat)


# One transfer of 1e6 bytes: half the RTT plus the serialization.
LAN_SECONDS = 0.001 + 8e6 / 100e6
WAN_SECONDS = 0.025 + 8e6 / 10e6


class TestClosedForm:
    """Against hand-summed delays: each sync is an upload, one
    aggregation (0.1x the device's iteration) and a download."""

    def test_three_tier(self):
        times = fixed_delays().simulate(20, tau=5, pi=2, rng=0)
        edge_round = 2 * LAN_SECONDS + 0.003
        cloud_round = 2 * WAN_SECONDS + 0.0004
        assert times[4] == pytest.approx(0.4)
        assert times[5] == pytest.approx(0.5 + edge_round)
        assert times[10] == pytest.approx(1.0 + 2 * edge_round + cloud_round)
        assert times[-1] == pytest.approx(
            2.0 + 4 * edge_round + 2 * cloud_round
        )

    def test_flat_has_no_cloud_tier(self):
        """Every sync crosses the WAN to the cloud device; ``pi`` is not
        used."""
        round_seconds = 2 * WAN_SECONDS + 0.0004
        for pi in (1, 3):
            times = fixed_delays(flat=True).simulate(20, tau=10, pi=pi, rng=0)
            assert times[9] == pytest.approx(0.9)
            assert times[10] == pytest.approx(1.0 + round_seconds)
            assert times[-1] == pytest.approx(2.0 + 2 * round_seconds)


class TestThreeTierTimeline:
    def test_cumulative_and_monotone(self):
        times = three_tier().simulate(40, tau=5, pi=2, rng=0)
        assert times.shape == (41,)
        assert times[0] == 0.0
        assert (np.diff(times) > 0).all()

    def test_aggregation_adds_time(self):
        """Iterations ending an edge round take longer than plain ones."""
        times = three_tier().simulate(40, tau=10, pi=2, rng=0)
        deltas = np.diff(times)
        plain = deltas[0:9].mean()
        sync = deltas[9]  # iteration 10 includes the edge round
        assert sync > plain

    def test_cloud_round_costlier_than_edge_round(self):
        times = three_tier().simulate(40, tau=10, pi=2, rng=0)
        deltas = np.diff(times)
        edge_only = deltas[9]  # t=10: edge round
        with_cloud = deltas[19]  # t=20: edge + cloud round
        assert with_cloud > edge_only

    def test_deterministic(self):
        a = three_tier().simulate(20, tau=5, pi=2, rng=7)
        b = three_tier().simulate(20, tau=5, pi=2, rng=7)
        assert np.array_equal(a, b)

    def test_payload_multiplier_slows_rounds(self):
        lean = three_tier(1.0).simulate(20, tau=5, pi=2, rng=0)
        heavy = three_tier(4.0).simulate(20, tau=5, pi=2, rng=0)
        assert heavy[-1] > lean[-1]

    def test_device_count_validation(self):
        topo = Topology.uniform(2, 2, 10)
        with pytest.raises(ValueError):
            Timeline(topo, AsyncDeployment(worker_device_pool(3), PAYLOAD))

    def test_partial_quorum_refused(self):
        """The replay has no quorum: every sync waits for everyone."""
        topo = Topology.uniform(2, 2, 10)
        deployment = AsyncDeployment(worker_device_pool(4), PAYLOAD, quorum=0.5)
        with pytest.raises(ValueError, match="quorum"):
            Timeline(topo, deployment)


class TestTwoTierTimeline:
    def test_monotone(self):
        times = two_tier().simulate(30, tau=10, rng=0)
        assert (np.diff(times) > 0).all()

    def test_wan_rounds_cost_more_than_lan_rounds(self):
        """The paper's core motivation: two-tier pays WAN every round."""
        three = three_tier().simulate(40, tau=10, pi=2, rng=0)
        two = two_tier().simulate(40, tau=10, rng=0)
        # Same tau: two-tier's aggregation at t=10 crosses the Internet.
        three_round = np.diff(three)[9]
        two_round = np.diff(two)[9]
        assert two_round > three_round

    def test_overall_three_tier_faster_at_matched_schedule(self):
        """τ=10, π=2 three-tier vs τ=20 two-tier (the paper's pairing):
        the three-tier run finishes the same T sooner."""
        three = three_tier().simulate(100, tau=10, pi=2, rng=0)
        two = two_tier().simulate(100, tau=20, rng=0)
        assert three[-1] < two[-1]


class TestTimeToAccuracy:
    def history(self):
        h = TrainingHistory("x")
        for t, acc in [(0, 0.1), (10, 0.6), (20, 0.97)]:
            h.record_eval(t, acc, 0.1, 0.1)
        return h

    def test_lookup(self):
        times = three_tier().simulate(20, tau=5, pi=2, rng=0)
        seconds = time_to_accuracy(self.history(), times, 0.95)
        assert seconds == pytest.approx(times[20])

    def test_unreached_returns_none(self):
        times = three_tier().simulate(20, tau=5, pi=2, rng=0)
        assert time_to_accuracy(self.history(), times, 0.99) is None

    def test_out_of_range_raises(self):
        times = three_tier().simulate(10, tau=5, pi=2, rng=0)
        with pytest.raises(ValueError):
            time_to_accuracy(self.history(), times, 0.95)
