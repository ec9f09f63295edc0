"""Tests for straggler injection."""

import numpy as np
import pytest

from repro.simulation import (
    DEVICE_PRESETS,
    AsyncDeployment,
    DeviceProfile,
    EventDrivenSimulator,
    worker_device_pool,
)
from repro.simulation.stragglers import StragglerDevice, add_stragglers
from repro.topology import Topology


class TestStragglerDevice:
    def base(self):
        return DEVICE_PRESETS["laptop_i3_m380"]

    def test_zero_probability_matches_base(self):
        wrapped = StragglerDevice(self.base(), 0.0, 10.0)
        a = wrapped.sample_iterations(20, rng=0)
        b = self.base().sample_iterations(20, rng=0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [0.25, 0.0])
    def test_scalar_draw_is_the_one_element_draw(self, sigma):
        """Scalar draws give the size-1 draws' value (stalled or not)
        and leave the generator in the same state."""
        base = DeviceProfile("x", 0.1, sigma=sigma)
        wrapped = StragglerDevice(base, 0.5, 8.0)
        stalled = 0
        for seed in range(50):
            scalar, array = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(20):
                delay = wrapped.sample_iteration(scalar)
                assert delay == wrapped.sample_iterations(1, array)[0]
                stalled += delay > 2 * base.mean_seconds
            assert scalar.bit_generator.state == array.bit_generator.state
        assert 0 < stalled < 1000

    def test_stalls_increase_delays(self):
        wrapped = StragglerDevice(self.base(), 0.5, 10.0)
        slow = wrapped.sample_iterations(5000, rng=1).mean()
        fast = self.base().sample_iterations(5000, rng=1).mean()
        assert slow > 2 * fast

    def test_effective_mean(self):
        wrapped = StragglerDevice(self.base(), 0.1, 11.0)
        expected = self.base().mean_seconds * 2.0
        assert wrapped.mean_seconds == pytest.approx(expected)
        observed = wrapped.sample_iterations(100_000, rng=2).mean()
        assert observed == pytest.approx(expected, rel=0.05)

    def test_aggregation_unaffected(self):
        wrapped = StragglerDevice(self.base(), 0.9, 100.0)
        assert wrapped.sample_aggregation(rng=0) == self.base().sample_aggregation(rng=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StragglerDevice(self.base(), 1.5, 2.0)
        with pytest.raises(ValueError):
            StragglerDevice(self.base(), 0.5, 0.0)

    def test_double_wrap_rejected(self):
        """Regression: wrapping a StragglerDevice compounded the stall
        probability invisibly; it must raise instead."""
        wrapped = StragglerDevice(self.base(), 0.1, 5.0)
        with pytest.raises(TypeError, match="cannot wrap another"):
            StragglerDevice(wrapped, 0.1, 5.0)

    def test_add_stragglers_over_wrapped_pool_rejected(self):
        pool = add_stragglers(worker_device_pool(3), 0.1, 5.0)
        with pytest.raises(TypeError, match="combined parameters"):
            add_stragglers(pool, 0.2, 3.0)


class TestTimelineIntegration:
    def test_stragglers_slow_the_timeline(self):
        topo = Topology.uniform(2, 2, 50)
        healthy = EventDrivenSimulator(
            topo, AsyncDeployment(worker_device_pool(4), 1e5)
        ).simulate(40, tau=5, pi=2, rng=3)
        straggling = EventDrivenSimulator(
            topo,
            AsyncDeployment(
                add_stragglers(worker_device_pool(4), 0.2, 8.0), 1e5
            ),
        ).simulate(40, tau=5, pi=2, rng=3)
        assert (
            straggling.iteration_times[-1] > healthy.iteration_times[-1]
        )

    def test_pool_wrapping(self):
        pool = add_stragglers(worker_device_pool(6), 0.1, 5.0)
        assert len(pool) == 6
        assert all(isinstance(d, StragglerDevice) for d in pool)
