"""VGG-style networks (VGG11/13/16/19 configurations).

Faithful to the torchvision configuration strings the paper cites [30],
with a ``width_multiplier`` so the same code runs full-size (multiplier 1)
and CPU/CI scale (multiplier 1/8 or 1/16).  Batch norm follows each conv,
as in the common ``vgg*_bn`` variants used for CIFAR training.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Dense
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import MaxPool2d
from repro.nn.reshape import Flatten
from repro.nn.supervised import SupervisedModel
from repro.utils.rng import make_rng

__all__ = ["VGG_CONFIGS", "make_vgg"]

# "M" is a 2x2 max-pool; integers are conv output channels (before scaling).
VGG_CONFIGS: dict[str, list] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M",
              512, 512, "M"],
    "vgg16": [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
              512, 512, 512, "M", 512, 512, 512, "M"],
    "vgg19": [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
              512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}


def make_vgg(
    config: str,
    in_channels: int,
    image_size: int,
    num_classes: int,
    *,
    width_multiplier: float = 1.0,
    batch_norm: bool = True,
    classifier_hidden: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> SupervisedModel:
    """Build a VGG network for square inputs of ``image_size``.

    Pooling stages that would shrink the feature map below 1x1 are skipped,
    so small synthetic images work without special-casing; at the standard
    32x32/224x224 sizes the architecture matches the cited configuration.
    """
    if config not in VGG_CONFIGS:
        raise ValueError(
            f"unknown VGG config {config!r}; choose from {sorted(VGG_CONFIGS)}"
        )
    if width_multiplier <= 0:
        raise ValueError(f"width_multiplier must be > 0, got {width_multiplier}")
    rng = make_rng(rng)

    layers: list = []
    channels = in_channels
    size = image_size
    for item in VGG_CONFIGS[config]:
        if item == "M":
            if size >= 2:
                layers.append(MaxPool2d(2))
                size //= 2
            continue
        out_channels = max(1, int(round(item * width_multiplier)))
        layers.append(Conv2d(channels, out_channels, 3, padding=1, rng=rng))
        if batch_norm:
            layers.append(BatchNorm2d(out_channels))
        layers.append(ReLU())
        channels = out_channels

    layers.append(Flatten())
    flat = channels * size * size
    hidden = classifier_hidden
    if hidden is None:
        hidden = max(num_classes, int(round(512 * width_multiplier)))
    layers.append(Dense(flat, hidden, rng=rng))
    layers.append(ReLU())
    layers.append(Dense(hidden, num_classes, rng=rng))

    return SupervisedModel(Sequential(*layers), SoftmaxCrossEntropyLoss())
