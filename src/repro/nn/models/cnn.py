"""The classic federated-MNIST CNN.

The paper's CNN "follows the classic structure outlined in [29]" (the
PySyft federated-MNIST tutorial): two conv+pool stages followed by two
dense layers.  Channel widths and the dense width scale with the input so
the same constructor serves full-size and CI-scaled inputs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.functional import conv_output_size
from repro.nn.linear import Dense
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.pooling import MaxPool2d
from repro.nn.reshape import Flatten
from repro.nn.supervised import SupervisedModel
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["make_cnn"]


def make_cnn(
    in_channels: int,
    image_size: int,
    num_classes: int,
    *,
    width: int = 16,
    hidden: int = 64,
    rng: np.random.Generator | int | None = None,
) -> SupervisedModel:
    """Two conv+maxpool stages, then two dense layers.

    ``width`` is the first conv's channel count (the second doubles it);
    ``hidden`` is the penultimate dense width.  Defaults are scaled for the
    synthetic datasets; pass ``width=20, hidden=500`` for a full-size
    MNIST-tutorial clone.
    """
    check_positive_int(image_size, "image_size")
    rng = make_rng(rng)

    size = image_size
    layers: list = []
    channels = in_channels
    for out_channels in (width, 2 * width):
        kernel = 3 if size >= 3 else size
        layers.append(
            Conv2d(channels, out_channels, kernel, padding=1, rng=rng)
        )
        layers.append(ReLU())
        size = conv_output_size(size, kernel, 1, 1)
        if size >= 2:
            layers.append(MaxPool2d(2))
            size = conv_output_size(size, 2, 2, 0)
        channels = out_channels

    layers.append(Flatten())
    flat = channels * size * size
    layers.append(Dense(flat, hidden, rng=rng))
    layers.append(ReLU())
    layers.append(Dense(hidden, num_classes, rng=rng))

    return SupervisedModel(Sequential(*layers), SoftmaxCrossEntropyLoss())
