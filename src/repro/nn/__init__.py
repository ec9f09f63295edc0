"""Pure-NumPy neural-network substrate.

Provides the module system, layers, losses and model zoo used as the
training substrate for every federated-learning algorithm in this
reproduction (the paper used PyTorch; see DESIGN.md §3).
"""

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Dense
from repro.nn.losses import Loss, MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.norm import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.reshape import Flatten
from repro.nn.supervised import SupervisedModel

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Dense",
    "Conv2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "Flatten",
    "ReLU",
    "Loss",
    "MSELoss",
    "SoftmaxCrossEntropyLoss",
    "SupervisedModel",
]
