"""Generic multi-layer perceptron builder.

Not one of the paper's five model families, but the natural model for
flat-feature datasets (the UCI-HAR stand-in) and for downstream users of
the substrate; with ``hidden=()`` it degenerates to logistic regression.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.linear import Dense
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.module import Sequential
from repro.nn.supervised import SupervisedModel
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["make_mlp"]


def make_mlp(
    in_features: int,
    hidden: tuple[int, ...],
    num_classes: int,
    *,
    rng: np.random.Generator | int | None = None,
) -> SupervisedModel:
    """ReLU dense stack ``in -> hidden... -> classes`` with cross-entropy."""
    check_positive_int(in_features, "in_features")
    check_positive_int(num_classes, "num_classes")
    rng = make_rng(rng)

    layers: list = []
    width = in_features
    for size in hidden:
        check_positive_int(size, "hidden width")
        layers.append(Dense(width, size, rng=rng))
        layers.append(ReLU())
        width = size
    layers.append(Dense(width, num_classes, rng=rng))
    return SupervisedModel(Sequential(*layers), SoftmaxCrossEntropyLoss())
