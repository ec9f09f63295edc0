"""Tests for the replay clock of Fig. 2(h)/(l): the event simulator at
quorum 1.0, three-tier and ``flat``."""

import numpy as np
import pytest

from repro.metrics import TrainingHistory
from repro.simulation import (
    AsyncDeployment,
    DeviceProfile,
    EventDrivenSimulator,
    LinkProfile,
    time_to_accuracy,
    worker_device_pool,
)
from repro.telemetry import tracing
from repro.topology import Topology

PAYLOAD = 4e6  # 4 MB model: large enough that WAN serialization matters


def replay(payload_multiplier=1.0, flat=False):
    topo = Topology.uniform(2, 2, 100)
    return EventDrivenSimulator(
        topo,
        AsyncDeployment(worker_device_pool(4), PAYLOAD * payload_multiplier),
        flat=flat,
    )


def clock(simulator, total, tau, pi=2, rng=0):
    """The replay's clock with the run start as entry 0, as
    ``run_time_to_accuracy`` reads it: ``times[t]`` after iteration t."""
    result = simulator.simulate(total, tau, pi, rng=rng)
    return np.concatenate(([0.0], result.iteration_times))


def fixed_delays(flat=False, workers=None, topology=None):
    """Deterministic devices and links, so a replay has a closed form."""
    deployment = AsyncDeployment(
        workers or [DeviceProfile("worker", 0.1, sigma=0.0)] * 4,
        1e6,
        edge_device=DeviceProfile("edge", 0.03, sigma=0.0),
        cloud_device=DeviceProfile("cloud", 0.004, sigma=0.0),
        lan=LinkProfile("lan", 100.0, 0.002, jitter_sigma=0.0),
        wan=LinkProfile("wan", 10.0, 0.05, jitter_sigma=0.0),
    )
    return EventDrivenSimulator(
        topology or Topology([[10], [10, 10, 10]]), deployment, flat=flat
    )


class ScriptedDevice:
    """A worker whose local steps take the given seconds, in order."""

    def __init__(self, *seconds):
        self.seconds = list(seconds)

    def sample_iteration(self, rng):
        return self.seconds.pop(0)


# One transfer of 1e6 bytes: half the RTT plus the serialization.
LAN_SECONDS = 0.001 + 8e6 / 100e6
WAN_SECONDS = 0.025 + 8e6 / 10e6
# An aggregation is 0.1x the device's iteration.
EDGE_AGGREGATION = 0.003
CLOUD_AGGREGATION = 0.0004


class TestClosedForm:
    """Against hand-summed delays.  Workers meet only at rounds: a round
    finishes one upload and one aggregation after its members' last
    step, and its download opens the next interval."""

    def test_three_tier(self):
        times = clock(fixed_delays(), 20, tau=5, pi=2)
        edge = LAN_SECONDS + EDGE_AGGREGATION
        cloud = WAN_SECONDS + CLOUD_AGGREGATION
        assert times[4] == pytest.approx(0.4)
        assert times[5] == pytest.approx(0.5 + edge)
        assert times[6] == pytest.approx(0.6 + edge + LAN_SECONDS)
        assert times[10] == pytest.approx(
            1.0 + 2 * edge + LAN_SECONDS + cloud
        )
        # Downloads: LAN after rounds 1 and 3, WAN then LAN after the
        # cloud round that closes round 2.
        assert times[-1] == pytest.approx(
            2.0 + 4 * edge + 2 * cloud + 3 * LAN_SECONDS + WAN_SECONDS
        )

    def test_workers_meet_only_at_rounds(self):
        """Two workers of one edge alternate a slow and a fast step.
        Each runs its interval at its own pace, so the round opens after
        0.4 s of compute, where a barrier after every step would take
        0.6 s."""
        simulator = fixed_delays(
            workers=[ScriptedDevice(0.3, 0.1), ScriptedDevice(0.1, 0.3)],
            topology=Topology([[10, 10]]),
        )
        times = clock(simulator, 2, tau=2, pi=1)
        edge = LAN_SECONDS + EDGE_AGGREGATION
        cloud = WAN_SECONDS + CLOUD_AGGREGATION
        assert times[1] == pytest.approx(0.3)
        assert times[2] == pytest.approx(0.4 + edge + cloud)

    def test_flat_has_no_cloud_tier(self):
        """Every round crosses the WAN to the cloud device and is the
        cloud round; ``pi`` is not used."""
        round_seconds = WAN_SECONDS + CLOUD_AGGREGATION
        for pi in (1, 3):
            with tracing() as tracer:
                result = fixed_delays(flat=True).simulate(20, 10, pi, rng=0)
            times = np.concatenate(([0.0], result.iteration_times))
            assert times[9] == pytest.approx(0.9)
            assert times[10] == pytest.approx(1.0 + round_seconds)
            assert times[-1] == pytest.approx(
                2.0 + 2 * round_seconds + WAN_SECONDS
            )
            assert [r.edge for r in result.edge_rounds] == [0, 0]
            assert [r.round_index for r in result.cloud_rounds] == [1, 2]
            assert tracer.counters["eventsim.edge_quorum_met"] == 2
            assert "eventsim.cloud_sync" not in tracer.counters


class TestThreeTierTimeline:
    def test_cumulative_and_monotone(self):
        times = clock(replay(), 40, tau=5)
        assert times.shape == (41,)
        assert times[0] == 0.0
        assert (np.diff(times) > 0).all()

    def test_aggregation_adds_time(self):
        """Iterations ending an edge round take longer than plain ones."""
        deltas = np.diff(clock(replay(), 40, tau=10))
        plain = deltas[0:9].mean()
        sync = deltas[9]  # iteration 10 ends the edge round
        assert sync > plain

    def test_cloud_round_costlier_than_edge_round(self):
        deltas = np.diff(clock(replay(), 40, tau=10))
        edge_only = deltas[9]  # t=10: edge round
        with_cloud = deltas[19]  # t=20: edge + cloud round
        assert with_cloud > edge_only

    def test_deterministic(self):
        a = clock(replay(), 20, tau=5, rng=7)
        b = clock(replay(), 20, tau=5, rng=7)
        assert np.array_equal(a, b)

    def test_payload_multiplier_slows_rounds(self):
        lean = clock(replay(1.0), 20, tau=5)
        heavy = clock(replay(4.0), 20, tau=5)
        assert heavy[-1] > lean[-1]

    def test_device_count_validation(self):
        topo = Topology.uniform(2, 2, 10)
        with pytest.raises(ValueError):
            EventDrivenSimulator(
                topo, AsyncDeployment(worker_device_pool(3), PAYLOAD)
            )


class TestTwoTierTimeline:
    def test_monotone(self):
        times = clock(replay(flat=True), 30, tau=10)
        assert (np.diff(times) > 0).all()

    def test_wan_rounds_cost_more_than_lan_rounds(self):
        """The paper's core motivation: two-tier pays WAN every round."""
        three = clock(replay(), 40, tau=10)
        two = clock(replay(flat=True), 40, tau=10)
        # Same tau: two-tier's aggregation at t=10 crosses the Internet.
        three_round = np.diff(three)[9]
        two_round = np.diff(two)[9]
        assert two_round > three_round


class TestTimeToAccuracy:
    def history(self):
        h = TrainingHistory("x")
        for t, acc in [(0, 0.1), (10, 0.6), (20, 0.97)]:
            h.record_eval(t, acc, 0.1, 0.1)
        return h

    def test_lookup(self):
        times = clock(replay(), 20, tau=5)
        seconds = time_to_accuracy(self.history(), times, 0.95)
        assert seconds == pytest.approx(times[20])

    def test_reached_at_the_start_costs_nothing(self):
        """Entry 0 of the clock is the run start."""
        times = clock(replay(), 20, tau=5)
        assert time_to_accuracy(self.history(), times, 0.1) == 0.0

    def test_unreached_returns_none(self):
        times = clock(replay(), 20, tau=5)
        assert time_to_accuracy(self.history(), times, 0.99) is None

    def test_out_of_range_raises(self):
        times = clock(replay(), 10, tau=5)
        with pytest.raises(ValueError):
            time_to_accuracy(self.history(), times, 0.95)
