"""Bit-for-bit reproducibility of full experiment runs."""

import numpy as np
import pytest

from repro.algorithms import ALGORITHM_REGISTRY, ASYNC_ALGORITHM_REGISTRY
from repro.experiments import ExperimentConfig, run_single
from repro.experiments.builders import algorithm_class

CONFIG = ExperimentConfig(
    model="logistic",
    num_samples=400,
    total_iterations=30,
    tau=3,
    pi=2,
    eval_every=10,
)


class TestReproducibility:
    def test_identical_runs(self):
        a = run_single("HierAdMo", CONFIG)
        b = run_single("HierAdMo", CONFIG)
        assert a.test_accuracy == b.test_accuracy
        assert a.test_loss == b.test_loss
        assert a.gamma_trace == b.gamma_trace

    def test_seed_changes_everything(self):
        a = run_single("HierAdMo", CONFIG)
        b = run_single("HierAdMo", CONFIG.with_overrides(seed=99))
        assert a.test_accuracy != b.test_accuracy

    def test_all_algorithm_families_reproducible(self):
        for name in ("FedNAG", "SlowMo", "HierFAVG", "Mime"):
            a = run_single(name, CONFIG)
            b = run_single(name, CONFIG)
            assert a.test_loss == b.test_loss, name


# Every name the builders construct: both registries and the extensions.
BUILDABLE = sorted(
    {*ALGORITHM_REGISTRY, *ASYNC_ALGORITHM_REGISTRY}
    | {"QuantizedHierFAVG", "FedProx", "SampledFedAvg"}
)
TINY = ExperimentConfig(
    model="logistic",
    num_samples=200,
    total_iterations=12,
    tau=2,
    pi=2,
    eval_every=4,
    seed=1,
)


@pytest.mark.parametrize("name", BUILDABLE)
def test_every_buildable_algorithm_is_reproducible(name):
    """Two runs of one config agree exactly: no run path draws from OS
    entropy."""
    assert algorithm_class(name).__name__
    a = run_single(name, TINY)
    b = run_single(name, TINY)
    assert a.iterations == b.iterations
    for series in ("test_accuracy", "test_loss", "train_loss"):
        np.testing.assert_array_equal(
            getattr(a, series), getattr(b, series), err_msg=series
        )
    assert a.comm.to_dict() == b.comm.to_dict()
