"""Tests for device delay profiles."""

import numpy as np
import pytest

from repro.simulation import DEVICE_PRESETS, DeviceProfile, worker_device_pool


class TestDeviceProfile:
    def test_sample_count_and_positivity(self):
        device = DeviceProfile("x", 0.1)
        delays = device.sample_iterations(100, rng=0)
        assert delays.shape == (100,)
        assert (delays > 0).all()

    def test_mean_calibration(self):
        device = DeviceProfile("x", 0.1, sigma=0.3)
        delays = device.sample_iterations(200_000, rng=0)
        assert delays.mean() == pytest.approx(0.1, rel=0.02)

    def test_zero_sigma_deterministic(self):
        device = DeviceProfile("x", 0.05, sigma=0.0)
        delays = device.sample_iterations(10, rng=0)
        assert np.allclose(delays, 0.05)

    def test_aggregation_cheaper_than_iteration(self):
        device = DeviceProfile("x", 0.1, sigma=0.0, aggregation_scale=0.1)
        assert device.sample_aggregation(rng=0) == pytest.approx(0.01)

    def test_deterministic_given_seed(self):
        device = DeviceProfile("x", 0.1)
        a = device.sample_iterations(5, rng=42)
        b = device.sample_iterations(5, rng=42)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("sigma", [0.25, 0.0])
    def test_scalar_draw_is_the_one_element_draw(self, sigma):
        """The event engine's scalar draw gives the value of a size-1
        draw and leaves the generator in the same state."""
        device = DeviceProfile("x", 0.1, sigma=sigma)
        for seed in range(50):
            scalar, array = (np.random.default_rng(seed) for _ in range(2))
            for _ in range(20):
                delay = device.sample_iteration(scalar)
                assert isinstance(delay, float)
                assert delay == device.sample_iterations(1, array)[0]
            assert scalar.bit_generator.state == array.bit_generator.state

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceProfile("x", 0.0)
        with pytest.raises(ValueError):
            DeviceProfile("x", 0.1, sigma=-0.1)
        with pytest.raises(ValueError):
            DeviceProfile("x", 0.1).sample_iterations(-1)


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
