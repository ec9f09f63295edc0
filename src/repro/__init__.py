"""HierAdMo: hierarchical federated learning with adaptive momentum.

A full reproduction of Yang et al., *Hierarchical Federated Learning with
Adaptive Momentum in Multi-Tier Networks* (ICDCS 2023), built on a pure
NumPy substrate.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for the paper-vs-measured record.

Quickstart::

    from repro import ExperimentConfig, run_single

    config = ExperimentConfig(dataset="mnist", model="cnn",
                              total_iterations=200)
    history = run_single("HierAdMo", config)
    print(history.final_accuracy)
"""

from repro.algorithms import ALGORITHM_REGISTRY, THREE_TIER_ALGORITHMS
from repro.checkpoint import CheckpointManager
from repro.core import Federation, HierAdMo, HierAdMoR
from repro.data import Dataset, make_dataset, train_test_split
from repro import telemetry
from repro.experiments import ExperimentConfig, run_many, run_single
from repro.faults import DEGRADATION_POLICIES, FaultPlan
from repro.metrics import TrainingHistory
from repro.topology import Topology

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "HierAdMo",
    "HierAdMoR",
    "Federation",
    "Topology",
    "Dataset",
    "make_dataset",
    "train_test_split",
    "TrainingHistory",
    "ExperimentConfig",
    "run_single",
    "run_many",
    "ALGORITHM_REGISTRY",
    "THREE_TIER_ALGORITHMS",
    "FaultPlan",
    "DEGRADATION_POLICIES",
    "CheckpointManager",
    "telemetry",
]
