"""Edge cases of the replay clock."""

import numpy as np
import pytest

from repro.simulation import (
    AsyncDeployment,
    EventDrivenSimulator,
    worker_device_pool,
)
from repro.topology import Topology


def simulator(payload_bytes=1e5, **kwargs):
    topo = Topology.uniform(2, 2, 10)
    deployment = AsyncDeployment(worker_device_pool(4), payload_bytes)
    return EventDrivenSimulator(topo, deployment, **kwargs)


class TestEdgeCases:
    def test_tau_longer_than_run(self):
        """No round closes at a multiple of τ, so the clock is pure
        compute: the engine's short tail round at T is not priced."""
        result = simulator().simulate(10, tau=50, pi=2, rng=0)
        deltas = np.diff(result.iteration_times)
        # No sync spike: all per-iteration deltas within compute scale.
        assert deltas.max() < 10 * deltas.min()
        assert [r.round_index for r in result.edge_rounds] == [1, 1]
        assert result.iteration_times[-1] < result.total_time

    def test_single_iteration(self):
        times = simulator().simulate(1, tau=1, pi=1, rng=0).iteration_times
        assert times.shape == (1,)
        assert times[0] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            simulator().simulate(0, tau=1, pi=1)
        with pytest.raises(ValueError):
            simulator().simulate(10, tau=0, pi=1)
        with pytest.raises(ValueError):
            simulator(payload_bytes=0)

    def test_two_tier_single_worker(self):
        two = EventDrivenSimulator(
            Topology([[10]]),
            AsyncDeployment(worker_device_pool(1), 1e5),
            flat=True,
        )
        times = two.simulate(10, tau=5, pi=1, rng=0).iteration_times
        assert (np.diff(times) > 0).all()

    def test_unbalanced_topology(self):
        topo = Topology([[10], [10, 10, 10]])
        three = EventDrivenSimulator(
            topo, AsyncDeployment(worker_device_pool(4), 1e5)
        )
        times = three.simulate(12, tau=4, pi=3, rng=1).iteration_times
        assert times.shape == (12,)
        assert (np.diff(times) > 0).all()
