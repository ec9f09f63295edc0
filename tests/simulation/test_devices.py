"""Tests for device delay profiles."""

import numpy as np
import pytest

from repro.simulation import DEVICE_PRESETS, DeviceProfile, worker_device_pool


def draws(device, count, seed):
    """``count`` successive scalar draws from one seeded generator."""
    rng = np.random.default_rng(seed)
    return np.array([device.sample_iteration(rng) for _ in range(count)])


class TestDeviceProfile:
    def test_sample_count_and_positivity(self):
        device = DeviceProfile("x", 0.1)
        delays = draws(device, 100, seed=0)
        assert delays.shape == (100,)
        assert (delays > 0).all()

    def test_mean_calibration(self):
        device = DeviceProfile("x", 0.1, sigma=0.3)
        delays = draws(device, 200_000, seed=0)
        assert delays.mean() == pytest.approx(0.1, rel=0.02)

    def test_zero_sigma_deterministic(self):
        device = DeviceProfile("x", 0.05, sigma=0.0)
        delays = draws(device, 10, seed=0)
        assert np.allclose(delays, 0.05)

    def test_aggregation_cheaper_than_iteration(self):
        device = DeviceProfile("x", 0.1, sigma=0.0, aggregation_scale=0.1)
        assert device.sample_aggregation(rng=0) == pytest.approx(0.01)

    def test_deterministic_given_seed(self):
        device = DeviceProfile("x", 0.1)
        a = draws(device, 5, seed=42)
        b = draws(device, 5, seed=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [0.25, 0.0])
    def test_draw_is_one_lognormal_at_the_mean(self, sigma):
        """Each draw is one lognormal whose mean is ``mean_seconds``
        (``sigma`` 0: the mean itself, drawing nothing), and leaves the
        generator where that one draw leaves it."""
        device = DeviceProfile("x", 0.1, sigma=sigma)
        mu = np.log(0.1) - sigma**2 / 2
        for seed in range(50):
            rng, reference = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(20):
                delay = device.sample_iteration(rng)
                assert isinstance(delay, float)
                want = reference.lognormal(mu, sigma) if sigma else 0.1
                assert delay == want
            assert rng.bit_generator.state == reference.bit_generator.state

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("x", 0.0)
        with pytest.raises(ValueError):
            DeviceProfile("x", 0.1, sigma=-0.1)


class TestPresets:
    def test_paper_devices_present(self):
        assert "laptop_i3_m380" in DEVICE_PRESETS
        assert "macbook_pro_i7" in DEVICE_PRESETS
        assert "gpu_tower_2080ti" in DEVICE_PRESETS

    def test_cloud_fastest(self):
        gpu = DEVICE_PRESETS["gpu_tower_2080ti"].mean_seconds
        for name, device in DEVICE_PRESETS.items():
            assert device.mean_seconds >= gpu

    def test_worker_pool_cycles(self):
        pool = worker_device_pool(10)
        assert len(pool) == 10
        assert pool[0] is pool[4]  # cycle length 4
