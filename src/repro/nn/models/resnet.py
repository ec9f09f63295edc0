"""ResNet with basic blocks (ResNet-18/34 layouts).

Matches the torchvision basic-block topology the paper cites [27]: an
initial conv, four stages of residual basic blocks with stride-2
downsampling between stages, global average pooling and a dense
classifier, as one flat ``Sequential`` whose residual blocks are single
layers.  A ``width_multiplier`` scales channel counts for CPU runs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Dense
from repro.nn.losses import SoftmaxCrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d
from repro.nn.supervised import SupervisedModel
from repro.utils.rng import make_rng

__all__ = ["BasicBlock", "make_resnet", "RESNET_LAYOUTS"]

RESNET_LAYOUTS: dict[str, list[int]] = {
    "resnet10": [1, 1, 1, 1],
    "resnet18": [2, 2, 2, 2],
    "resnet34": [3, 4, 6, 3],
}


class BasicBlock(Module):
    """Two 3x3 convs with identity (or 1x1-projected) skip connection.

    Its children take their parameter columns in registration order
    (``Module.bind``); ``proj_conv``/``proj_bn`` are ``None`` on an
    identity block.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1,
            bias=False, rng=rng,
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1,
            bias=False, rng=rng,
        )
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()

        self.proj_conv = self.proj_bn = None
        if stride != 1 or in_channels != out_channels:
            self.proj_conv = Conv2d(
                in_channels, out_channels, 1, stride=stride, bias=False,
                rng=rng,
            )
            self.proj_bn = BatchNorm2d(out_channels)

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        # The registered children, not the slots: a tracer may have
        # wrapped those.
        children = self._children
        first, hidden = children["conv1"].macs(shape)
        second, out = children["conv2"].macs(hidden)
        projection = children.get("proj_conv")
        skip = 0 if projection is None else projection.macs(shape)[0]
        return first + second + skip, out

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1.forward(self.bn1.forward(self.conv1.forward(x)))
        out = self.bn2.forward(self.conv2.forward(out))
        if self.proj_conv is not None:
            shortcut = self.proj_bn.forward(self.proj_conv.forward(x))
        else:
            shortcut = x
        return self.relu2.forward(out + shortcut)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_output)
        grad_main = self.conv1.backward(
            self.bn1.backward(
                self.relu1.backward(
                    self.conv2.backward(self.bn2.backward(grad))
                )
            )
        )
        if self.proj_conv is not None:
            grad_skip = self.proj_conv.backward(self.proj_bn.backward(grad))
        else:
            grad_skip = grad
        return grad_main + grad_skip


def make_resnet(
    layout: str,
    in_channels: int,
    num_classes: int,
    *,
    width_multiplier: float = 1.0,
    rng: np.random.Generator | int | None = None,
) -> SupervisedModel:
    """Build a basic-block ResNet (``"resnet18"`` gives the paper's model).

    ``width_multiplier`` scales the base width of 64 channels; 1/8 gives an
    8-channel stem suitable for CPU-scale benchmarks.
    """
    if layout not in RESNET_LAYOUTS:
        raise ValueError(
            f"unknown layout {layout!r}; choose from {sorted(RESNET_LAYOUTS)}"
        )
    if width_multiplier <= 0:
        raise ValueError(f"width_multiplier must be > 0, got {width_multiplier}")
    rng = make_rng(rng)
    base_width = max(1, int(round(64 * width_multiplier)))
    layers: list[Module] = [
        Conv2d(in_channels, base_width, 3, padding=1, bias=False, rng=rng),
        BatchNorm2d(base_width),
        ReLU(),
    ]
    channels = base_width
    for stage, num_blocks in enumerate(RESNET_LAYOUTS[layout]):
        out_channels = base_width * (2**stage)
        for block_index in range(num_blocks):
            stride = 2 if stage > 0 and block_index == 0 else 1
            layers.append(BasicBlock(channels, out_channels, stride, rng))
            channels = out_channels
    layers += [GlobalAvgPool2d(), Dense(channels, num_classes, rng=rng)]
    return SupervisedModel(Sequential(*layers), SoftmaxCrossEntropyLoss())
