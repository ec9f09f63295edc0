"""Weight initializers.

All initializers take an explicit ``numpy.random.Generator`` so model
construction is deterministic under the library's seeded RNG streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zeros", "kaiming_normal", "kaiming_uniform"]


def zeros(shape: tuple) -> np.ndarray:
    """All-zero tensor (biases, BatchNorm shifts)."""
    return np.zeros(shape, dtype=np.float64)


def _fan_in(shape: tuple) -> int:
    """Compute fan_in for dense and conv weight shapes.

    Dense weights are (out, in); conv weights are (out, in, kh, kw) where
    the receptive-field size multiplies the fan.
    """
    if len(shape) < 2:
        raise ValueError(f"fan computation needs >=2-D shape, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return shape[1] * receptive


def kaiming_normal(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He normal init for ReLU networks: N(0, sqrt(2 / fan_in))."""
    fan_in = _fan_in(shape)
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float64)


def kaiming_uniform(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """He uniform init for ReLU networks: U(-b, b), b = sqrt(6 / fan_in)."""
    fan_in = _fan_in(shape)
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float64)
