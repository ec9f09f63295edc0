"""Update-compression operators (extension; see DESIGN.md).

The paper's motivation is communication efficiency, and its related work
(Liu et al. [8]) studies hierarchical FL **with quantization**.  This
module provides the standard compression operators so the timing
experiments can quantify how compression shifts the two-tier/three-tier
trade-off:

* :class:`UniformQuantizer` — QSGD-style stochastic uniform quantization
  to ``bits`` bits per coordinate (unbiased),
* :class:`TopKSparsifier` — keep the k largest-magnitude coordinates,
* :class:`NoCompression` — identity, for uniform call sites.

Each operator reports its payload in bytes, which plugs directly into
an :class:`~repro.simulation.AsyncDeployment`'s ``payload_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int, check_probability

__all__ = [
    "CompressionResult",
    "Compressor",
    "NoCompression",
    "UniformQuantizer",
    "TopKSparsifier",
]


@dataclass(frozen=True)
class CompressionResult:
    """Decompressed vector + the bytes its wire format would occupy."""

    vector: np.ndarray
    payload_bytes: float


class Compressor:
    """Base interface: compress-then-decompress with payload accounting."""

    def compress(self, vector: np.ndarray) -> CompressionResult:
        raise NotImplementedError


class NoCompression(Compressor):
    """Identity operator: full-precision float64 payload."""

    def compress(self, vector: np.ndarray) -> CompressionResult:
        return CompressionResult(vector.copy(), vector.size * 8.0)


class UniformQuantizer(Compressor):
    """Stochastic uniform quantization (QSGD flavour).

    Coordinates are scaled into ``[0, 2^bits - 1]`` levels between the
    vector min and max and rounded stochastically, making the operator
    unbiased conditional on the scale.  Payload: ``bits`` per coordinate
    plus two float64 scale words.
    """

    def __init__(self, bits: int = 8, rng=None):
        self.bits = check_positive_int(bits, "bits")
        if self.bits > 16:
            raise ValueError(f"bits must be <= 16, got {bits}")
        self.rng = make_rng(rng)

    def compress(self, vector: np.ndarray) -> CompressionResult:
        low = float(vector.min())
        high = float(vector.max())
        levels = (1 << self.bits) - 1
        if high - low < 1e-12:
            return CompressionResult(
                np.full_like(vector, low), vector.size * self.bits / 8 + 16
            )
        scaled = (vector - low) / (high - low) * levels
        floor = np.floor(scaled)
        # Stochastic rounding keeps the quantizer unbiased.
        rounded = floor + (self.rng.random(vector.shape) < (scaled - floor))
        restored = rounded / levels * (high - low) + low
        payload = vector.size * self.bits / 8 + 16
        return CompressionResult(restored, payload)


class TopKSparsifier(Compressor):
    """Keep the ``fraction`` largest-magnitude coordinates, zero the rest.

    Payload: one (index, value) pair per kept coordinate (4 + 8 bytes).
    """

    def __init__(self, fraction: float):
        check_probability(fraction, "fraction")
        if fraction == 0.0:
            raise ValueError("fraction must be > 0 (nothing would be sent)")
        self.fraction = float(fraction)

    def compress(self, vector: np.ndarray) -> CompressionResult:
        k = max(1, int(round(self.fraction * vector.size)))
        if k >= vector.size:
            return CompressionResult(vector.copy(), vector.size * 8.0)
        keep = np.argpartition(np.abs(vector), -k)[-k:]
        sparse = np.zeros_like(vector)
        sparse[keep] = vector[keep]
        return CompressionResult(sparse, k * 12.0)
