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
from tests.simulation.test_devices import draws


class TestStragglerDevice:
    def base(self):
        return DEVICE_PRESETS["laptop_i3_m380"]

    def test_zero_probability_matches_base(self):
        """Each draw is the base device's draw from the same state."""
        base = self.base()
        wrapped = StragglerDevice(base, 0.0, 10.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            reference = np.random.default_rng()
            reference.bit_generator.state = rng.bit_generator.state
            assert wrapped.sample_iteration(rng) == base.sample_iteration(
                reference
            )

    @pytest.mark.parametrize("sigma", [0.25, 0.0])
    def test_draw_is_the_base_draw_then_one_stall_draw(self, sigma):
        """A draw is the base delay, then one uniform that stalls it by
        ``factor`` below ``probability``, and leaves the generator where
        those draws leave it."""
        base = DeviceProfile("x", 0.1, sigma=sigma)
        wrapped = StragglerDevice(base, 0.5, 8.0)
        stalled = 0
        for seed in range(50):
            rng, reference = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(20):
                delay = wrapped.sample_iteration(rng)
                want = base.sample_iteration(reference)
                if reference.random() < 0.5:
                    want *= 8.0
                    stalled += 1
                assert delay == want
            assert rng.bit_generator.state == reference.bit_generator.state
        assert 0 < stalled < 1000

    def test_stalls_increase_delays(self):
        wrapped = StragglerDevice(self.base(), 0.5, 10.0)
        slow = draws(wrapped, 5000, seed=1).mean()
        fast = draws(self.base(), 5000, seed=1).mean()
        assert slow > 2 * fast

    def test_effective_mean(self):
        wrapped = StragglerDevice(self.base(), 0.1, 11.0)
        expected = self.base().mean_seconds * 2.0
        assert wrapped.mean_seconds == pytest.approx(expected)
        observed = draws(wrapped, 100_000, seed=2).mean()
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
