"""Synthetic class-structured datasets standing in for the paper's corpora.

The paper evaluates on MNIST, CIFAR-10, (Tiny-)ImageNet and UCI-HAR.  None
can be downloaded in this offline environment, so each generator below
produces a seeded synthetic stand-in with the same *structural* properties
that drive hierarchical-FL dynamics:

* a fixed number of classes with distinct prototypes,
* per-sample intra-class variation (jitter + noise) controlling difficulty,
* image-shaped tensors so the conv models exercise their real code paths.

Each class prototype is a smooth random field (low-frequency mixture of a
few random blobs), so conv layers have genuine spatial structure to learn.
Difficulty is controlled by the noise/signal ratio: the MNIST stand-in is
easy (linear models reach high accuracy), the CIFAR stand-in is harder,
and the ImageNet stand-in has more classes and the most intra-class
variation — mirroring the relative difficulty ordering of the real sets.
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = [
    "make_blob_dataset",
    "make_synthetic_mnist",
    "make_synthetic_cifar10",
    "make_synthetic_imagenet",
    "make_synthetic_har",
    "make_dataset",
    "DATASET_BUILDERS",
]

# Elements per block of samples placed at once: the gathered prototypes
# of one block, the largest temporary, take 512 KiB.
_BLOCK_ELEMENTS = 1 << 16


def _smooth_field(
    rng: np.random.Generator, channels: int, size: int, num_blobs: int = 4
) -> np.ndarray:
    """A smooth random image: sum of a few random Gaussian bumps."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64) / max(size - 1, 1)
    field = np.zeros((channels, size, size))
    for channel in range(channels):
        for _ in range(num_blobs):
            cx, cy = rng.random(2)
            sigma = 0.15 + 0.25 * rng.random()
            amplitude = rng.normal(0.0, 1.0)
            field[channel] += amplitude * np.exp(
                -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2)
            )
    return field


def make_blob_dataset(
    num_samples: int,
    num_classes: int,
    *,
    channels: int = 1,
    image_size: int = 8,
    noise: float = 0.5,
    jitter: int = 0,
    scale_spread: float = 0.0,
    name: str = "blobs",
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """Core generator: class prototypes + noise + optional jitter.

    ``noise`` is the per-pixel Gaussian noise std relative to the unit-norm
    prototype; ``jitter`` is the max circular shift in pixels;
    ``scale_spread`` multiplies each sample's prototype by
    ``1 + U(-spread, spread)`` for amplitude variation.

    Each sample draws its scale (when ``scale_spread > 0``), its column
    shift dx and row shift dy (when ``jitter > 0``), then its noise, in
    that order.  The prototypes are then placed in blocks of samples:
    one gather applies every sample's circular shift, so the result is
    bit-identical to rolling each scaled prototype by dy rows and dx
    columns and adding its noise.
    """
    check_positive_int(num_samples, "num_samples")
    check_positive_int(num_classes, "num_classes")
    check_positive_int(image_size, "image_size")
    check_positive(noise + 1e-12, "noise")
    rng = make_rng(rng)

    prototypes = np.stack(
        [_smooth_field(rng, channels, image_size) for _ in range(num_classes)]
    )
    # Normalize each prototype to unit RMS so `noise` is a meaningful SNR knob.
    for proto in prototypes:
        rms = np.sqrt(np.mean(proto**2))
        if rms > 0:
            proto /= rms

    labels = rng.integers(0, num_classes, size=num_samples)
    shape = (channels, image_size, image_size)
    x = np.empty((num_samples, *shape))
    scales = np.ones(num_samples)
    shifts = np.zeros((num_samples, 2), dtype=np.int64)
    # Each sample's draws, in stream order: scale, dx, dy, then the noise,
    # which lands in ``x`` and gets the placed prototype added below.
    for index in range(num_samples):
        if scale_spread > 0:
            scales[index] = 1.0 + rng.uniform(-scale_spread, scale_spread)
        if jitter > 0:
            shifts[index, 0] = rng.integers(-jitter, jitter + 1)
            shifts[index, 1] = rng.integers(-jitter, jitter + 1)
        x[index] = rng.normal(0.0, noise, size=shape)

    # A circular shift by k is a gather: shifted position r reads position
    # ``(r - k) % image_size``, and ``wrap[k]`` lists those positions.
    wrap = (np.arange(image_size) - np.arange(image_size)[:, None]) % image_size
    channel = np.arange(channels)[:, None, None]
    block = max(1, _BLOCK_ELEMENTS // x[0].size)
    for start in range(0, num_samples, block):
        part = slice(start, start + block)
        rows = wrap[shifts[part, 1] % image_size]
        cols = wrap[shifts[part, 0] % image_size]
        placed = prototypes[
            labels[part, None, None, None],
            channel,
            rows[:, None, :, None],
            cols[:, None, None, :],
        ]
        if scale_spread > 0:
            placed *= scales[part, None, None, None]
        x[part] += placed

    return Dataset(x, labels, num_classes, name)


def make_synthetic_mnist(
    num_samples: int = 2000,
    *,
    image_size: int = 10,
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """MNIST stand-in: 10 classes, single channel, easy (low noise)."""
    return make_blob_dataset(
        num_samples,
        10,
        channels=1,
        image_size=image_size,
        noise=0.6,
        jitter=1,
        name="synthetic-mnist",
        rng=rng,
    )


def make_synthetic_cifar10(
    num_samples: int = 2000,
    *,
    image_size: int = 10,
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """CIFAR-10 stand-in: 10 classes, RGB, harder (more noise + jitter)."""
    return make_blob_dataset(
        num_samples,
        10,
        channels=3,
        image_size=image_size,
        noise=1.1,
        jitter=2,
        scale_spread=0.3,
        name="synthetic-cifar10",
        rng=rng,
    )


def make_synthetic_imagenet(
    num_samples: int = 2000,
    *,
    num_classes: int = 20,
    image_size: int = 12,
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """Tiny-ImageNet stand-in: more classes, RGB, most variation."""
    return make_blob_dataset(
        num_samples,
        num_classes,
        channels=3,
        image_size=image_size,
        noise=1.2,
        jitter=2,
        scale_spread=0.4,
        name="synthetic-imagenet",
        rng=rng,
    )


def make_synthetic_har(
    num_samples: int = 2000,
    *,
    num_features: int = 64,
    rng: np.random.Generator | int | None = None,
) -> Dataset:
    """UCI-HAR stand-in: 6 activity classes, 1-D sensor-feature vectors.

    Each class has a characteristic spectral signature (random mixture of
    sinusoidal bases) plus noise, mimicking the accelerometer statistics
    structure of the real HAR feature vectors.
    """
    check_positive_int(num_samples, "num_samples")
    check_positive_int(num_features, "num_features")
    rng = make_rng(rng)
    num_classes = 6

    t = np.linspace(0.0, 1.0, num_features)
    signatures = np.zeros((num_classes, num_features))
    for label in range(num_classes):
        for _ in range(3):
            freq = rng.uniform(1.0, 8.0)
            phase = rng.uniform(0.0, 2 * np.pi)
            amplitude = rng.normal(0.0, 1.0)
            signatures[label] += amplitude * np.sin(
                2 * np.pi * freq * t + phase
            )
        rms = np.sqrt(np.mean(signatures[label] ** 2))
        if rms > 0:
            signatures[label] /= rms

    labels = rng.integers(0, num_classes, size=num_samples)
    x = signatures[labels] * (
        1.0 + rng.uniform(-0.2, 0.2, size=(num_samples, 1))
    )
    x = x + rng.normal(0.0, 0.7, size=x.shape)
    return Dataset(x, labels, num_classes, "synthetic-har")


DATASET_BUILDERS = {
    "mnist": make_synthetic_mnist,
    "cifar10": make_synthetic_cifar10,
    "imagenet": make_synthetic_imagenet,
    "har": make_synthetic_har,
}


def make_dataset(
    name: str,
    num_samples: int,
    rng: np.random.Generator | int | None = None,
    **kwargs,
) -> Dataset:
    """Build a named synthetic dataset (``mnist``/``cifar10``/``imagenet``/``har``)."""
    if name not in DATASET_BUILDERS:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(DATASET_BUILDERS)}"
        )
    return DATASET_BUILDERS[name](num_samples, rng=rng, **kwargs)
