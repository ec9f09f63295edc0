"""Edge cases of the delay timelines."""

import numpy as np
import pytest

from repro.simulation import AsyncDeployment, Timeline, worker_device_pool
from repro.topology import Topology


def timeline(payload_bytes=1e5, **kwargs):
    topo = Topology.uniform(2, 2, 10)
    deployment = AsyncDeployment(worker_device_pool(4), payload_bytes)
    return Timeline(topo, deployment, **kwargs)


class TestEdgeCases:
    def test_tau_longer_than_run(self):
        """No aggregation fires; the timeline is pure compute."""
        times = timeline().simulate(10, tau=50, pi=2, rng=0)
        deltas = np.diff(times)
        # No sync spike: all per-iteration deltas within compute scale.
        assert deltas.max() < 10 * deltas.min()

    def test_single_iteration(self):
        times = timeline().simulate(1, tau=1, pi=1, rng=0)
        assert times.shape == (2,)
        assert times[1] > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            timeline().simulate(0, tau=1, pi=1)
        with pytest.raises(ValueError):
            timeline().simulate(10, tau=0, pi=1)
        with pytest.raises(ValueError):
            timeline(payload_bytes=0)

    def test_two_tier_single_worker(self):
        two = Timeline(
            Topology([[10]]),
            AsyncDeployment(worker_device_pool(1), 1e5),
            flat=True,
        )
        times = two.simulate(10, tau=5, rng=0)
        assert (np.diff(times) > 0).all()

    def test_unbalanced_topology(self):
        topo = Topology([[10], [10, 10, 10]])
        three = Timeline(topo, AsyncDeployment(worker_device_pool(4), 1e5))
        times = three.simulate(12, tau=4, pi=3, rng=1)
        assert times.shape == (13,)
        assert (np.diff(times) > 0).all()
