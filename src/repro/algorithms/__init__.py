"""Baseline FL algorithms: the paper's ten comparison points.

``ALGORITHM_REGISTRY`` maps canonical names to constructors so the
experiment runners and benches can build any algorithm from a config
string.  HierAdMo / HierAdMo-R live in :mod:`repro.core` but are included
in the registry for convenience.
"""

from repro.algorithms.asynchronous import (
    AsyncExecutionMixin,
    AsyncFedAvg,
    AsyncHierAdMo,
)
from repro.algorithms.compressed import QuantizedHierFAVG
from repro.algorithms.fedprox import FedProx
from repro.algorithms.hierarchical import CFL, HierFAVG
from repro.algorithms.participation import SampledFedAvg
from repro.algorithms.twotier import (
    FastSlowMo,
    FedADC,
    FedAvg,
    FedMom,
    FedNAG,
    Mime,
    SlowMo,
    TwoTierAlgorithm,
)
from repro.core.hieradmo import HierAdMo, HierAdMoR

ALGORITHM_REGISTRY = {
    "HierAdMo": HierAdMo,
    "HierAdMo-R": HierAdMoR,
    "HierFAVG": HierFAVG,
    "CFL": CFL,
    "FastSlowMo": FastSlowMo,
    "FedADC": FedADC,
    "FedMom": FedMom,
    "SlowMo": SlowMo,
    "FedNAG": FedNAG,
    "Mime": Mime,
    "FedAvg": FedAvg,
}

# Event-driven variants live in their own registry: they take a
# deployment (devices, links, quorum) on top of the usual federation,
# so the lockstep experiment runners cannot construct them blindly.
ASYNC_ALGORITHM_REGISTRY = {
    "AsyncHierAdMo": AsyncHierAdMo,
    "AsyncFedAvg": AsyncFedAvg,
}

THREE_TIER_ALGORITHMS = ("HierAdMo", "HierAdMo-R", "HierFAVG", "CFL")

__all__ = [
    "ALGORITHM_REGISTRY",
    "ASYNC_ALGORITHM_REGISTRY",
    "THREE_TIER_ALGORITHMS",
    "TwoTierAlgorithm",
    "FedAvg",
    "FedNAG",
    "FedMom",
    "SlowMo",
    "Mime",
    "FedADC",
    "FastSlowMo",
    "HierFAVG",
    "CFL",
    "HierAdMo",
    "HierAdMoR",
    "QuantizedHierFAVG",
    "SampledFedAvg",
    "FedProx",
    "AsyncExecutionMixin",
    "AsyncHierAdMo",
    "AsyncFedAvg",
]
