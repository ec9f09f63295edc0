"""Golden-trajectory regression tests for the stacked-state refactor.

The buffer-backed flat runtime (FlatParamBuffer + stacked ``(N, d)``
worker state + GEMM aggregation) must be a pure performance change: every
algorithm has to produce the same history the seed list-of-vectors
implementation produced.  The goldens in ``golden_trajectories.json``
were generated by the *seed* implementation (run this file as a script to
regenerate them); the tests replay each algorithm on an identically
seeded federation and compare with ``np.allclose`` at rtol 1e-8.

``train_loss[0]`` is excluded from the comparison: the seed recorded the
iteration-0 *test* loss there, which was a bug — it is now ``nan``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.algorithms import (
    CFL,
    FastSlowMo,
    FedADC,
    FedAvg,
    FedMom,
    FedNAG,
    FedProx,
    HierFAVG,
    Mime,
    QuantizedHierFAVG,
    SampledFedAvg,
    SlowMo,
)
from repro.core import Federation, HierAdMo, HierAdMoR
from repro.data import (
    make_synthetic_mnist,
    partition_xclass,
    train_test_split,
)
from repro.nn.models import make_cnn, make_logistic_regression

GOLDEN_PATH = Path(__file__).with_name("golden_trajectories.json")
CNN_GOLDEN_PATH = Path(__file__).with_name("golden_cnn_trajectories.json")

TOTAL_ITERATIONS = 24
EVAL_EVERY = 6

# CNN goldens are heavier per iteration, so the runs are shorter and
# cover a representative algorithm slice (hierarchical + flat).
CNN_ITERATIONS = 12
CNN_ALGORITHMS = {
    "HierAdMo": (HierAdMo, {"eta": 0.05, "tau": 3, "pi": 2}),
    "HierFAVG": (HierFAVG, {"eta": 0.05, "tau": 3, "pi": 2}),
    "FedAvg": (FedAvg, {"eta": 0.05, "tau": 6}),
}

# name -> (class, kwargs).  Every entry runs on a fresh, identically
# seeded federation, so goldens pin the full stochastic trajectory.
ALGORITHMS = {
    "HierAdMo": (HierAdMo, {"eta": 0.05, "tau": 3, "pi": 2}),
    "HierAdMo-R": (HierAdMoR, {"eta": 0.05, "tau": 3, "pi": 2}),
    "HierAdMo-y": (
        HierAdMo,
        {"eta": 0.05, "tau": 3, "pi": 2, "angle_mode": "y"},
    ),
    "HierFAVG": (HierFAVG, {"eta": 0.05, "tau": 3, "pi": 2}),
    "CFL": (CFL, {"eta": 0.05, "tau": 3, "pi": 2}),
    "QuantizedHierFAVG": (
        QuantizedHierFAVG,
        {"eta": 0.05, "tau": 3, "pi": 2},
    ),
    "FedAvg": (FedAvg, {"eta": 0.05, "tau": 6}),
    "FedNAG": (FedNAG, {"eta": 0.05, "tau": 6, "gamma": 0.5}),
    "FedMom": (FedMom, {"eta": 0.05, "tau": 6, "beta": 0.5}),
    "SlowMo": (SlowMo, {"eta": 0.05, "tau": 6, "beta": 0.5, "alpha": 1.0}),
    "Mime": (Mime, {"eta": 0.05, "tau": 6, "beta": 0.5}),
    "FedADC": (FedADC, {"eta": 0.05, "tau": 6, "beta": 0.5}),
    "FastSlowMo": (
        FastSlowMo,
        {"eta": 0.05, "tau": 6, "gamma": 0.5, "beta": 0.5, "alpha": 1.0},
    ),
    "FedProx": (FedProx, {"eta": 0.05, "tau": 6, "mu": 0.1}),
    "SampledFedAvg": (SampledFedAvg, {"eta": 0.05, "tau": 6, "rng": 7}),
}


# How a run computes its workers' gradients: the whole fleet in one
# program call per iteration, or one ``Federation.gradient`` call (the
# one-row program) per worker.
PATHS = ("batched", "loop")


def one_row_at_a_time(federation: Federation) -> Federation:
    """Route ``federation.gradient_all`` through ``Federation.gradient``,
    one worker after another, each on its own next mini-batch."""

    def gradient_all(params, *, rows=slice(None), out):
        workers = np.arange(federation.num_workers)[rows]
        losses = np.empty(workers.size)
        for position, worker in enumerate(workers.tolist()):
            _, losses[position] = federation.gradient(
                worker, params[worker], out=out[worker]
            )
        return losses

    federation.gradient_all = gradient_all
    return federation


def build_federation() -> Federation:
    """Fresh 2-edge x 2-worker non-i.i.d. logistic federation (seeded)."""
    corpus = make_synthetic_mnist(600, rng=11).flattened()
    train, test = train_test_split(corpus, 0.25, rng=12)
    parts = partition_xclass(train, 4, 3, rng=3)
    edges = [parts[0:2], parts[2:4]]
    model = make_logistic_regression(train.num_features, 10, rng=4)
    return Federation(model, edges, test, batch_size=16, seed=5)


def run_algorithm(
    name: str, traced: bool = False, path: str = "batched"
) -> dict:
    """One seeded run; returns the history as plain JSON-able lists."""
    cls, kwargs = ALGORITHMS[name]
    federation = build_federation()
    if path == "loop":
        one_row_at_a_time(federation)
    algorithm = cls(federation, **kwargs)
    if traced:
        with telemetry.tracing():
            history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    else:
        history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    return {
        "iterations": list(history.iterations),
        "test_accuracy": list(history.test_accuracy),
        "test_loss": list(history.test_loss),
        "train_loss": list(history.train_loss),
        "gamma_trace": [
            [trace[edge] for edge in sorted(trace)]
            for trace in history.gamma_trace
        ],
    }


def build_cnn_federation() -> Federation:
    """2-edge x 2-worker non-i.i.d. CNN federation on 8x8 images."""
    corpus = make_synthetic_mnist(240, image_size=8, rng=21)
    train, test = train_test_split(corpus, 0.25, rng=22)
    parts = partition_xclass(train, 4, 3, rng=23)
    edges = [parts[0:2], parts[2:4]]
    model = make_cnn(1, 8, 10, width=3, hidden=16, rng=24)
    return Federation(model, edges, test, batch_size=8, seed=25)


def run_cnn_algorithm(name: str, path: str = "batched") -> dict:
    """One seeded CNN run; same JSON-able history as the logistic runs."""
    cls, kwargs = CNN_ALGORITHMS[name]
    federation = build_cnn_federation()
    if path == "loop":
        one_row_at_a_time(federation)
    algorithm = cls(federation, **kwargs)
    history = algorithm.run(CNN_ITERATIONS, eval_every=EVAL_EVERY)
    return {
        "iterations": list(history.iterations),
        "test_accuracy": list(history.test_accuracy),
        "test_loss": list(history.test_loss),
        "train_loss": list(history.train_loss),
        "gamma_trace": [
            [trace[edge] for edge in sorted(trace)]
            for trace in history.gamma_trace
        ],
    }


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as handle:
        return json.load(handle)


def _load_cnn_goldens() -> dict:
    with CNN_GOLDEN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "traced", [False, True], ids=["untraced", "traced"]
)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_matches_seed_trajectory(name, traced, path):
    """Goldens must hold with tracing off AND on, whether the fleet runs
    as one program call or one row at a time: neither instrumentation
    nor the worker axis may perturb the numerics beyond roundoff."""
    golden = _load_goldens()[name]
    fresh = run_algorithm(name, traced=traced, path=path)

    assert fresh["iterations"] == golden["iterations"]
    # Iteration 0 has no training batches; its train_loss is nan (the
    # seed wrongly recorded the test loss there, hence the exclusion).
    assert math.isnan(fresh["train_loss"][0])
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            fresh[series], golden[series], rtol=1e-8, atol=1e-10
        ), f"{name}.{series} drifted from the seed implementation"
    assert np.allclose(
        fresh["train_loss"][1:],
        golden["train_loss"][1:],
        rtol=1e-8,
        atol=1e-10,
    ), f"{name}.train_loss drifted from the seed implementation"
    assert len(fresh["gamma_trace"]) == len(golden["gamma_trace"])
    for fresh_round, golden_round in zip(
        fresh["gamma_trace"], golden["gamma_trace"]
    ):
        assert np.allclose(
            fresh_round, golden_round, rtol=1e-8, atol=1e-10
        ), f"{name} gamma trace drifted from the seed implementation"


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("name", sorted(CNN_ALGORITHMS))
def test_cnn_matches_golden_trajectory(name, path):
    """The conv/pool layers must replay the CNN goldens (to roundoff)
    on the fleet program and one row at a time."""
    golden = _load_cnn_goldens()[name]
    fresh = run_cnn_algorithm(name, path=path)

    assert fresh["iterations"] == golden["iterations"]
    assert math.isnan(fresh["train_loss"][0])
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            fresh[series], golden[series], rtol=1e-8, atol=1e-10
        ), f"cnn/{name}.{series} drifted from the golden"
    assert np.allclose(
        fresh["train_loss"][1:],
        golden["train_loss"][1:],
        rtol=1e-8,
        atol=1e-10,
    ), f"cnn/{name}.train_loss drifted from the golden"
    for fresh_round, golden_round in zip(
        fresh["gamma_trace"], golden["gamma_trace"]
    ):
        assert np.allclose(
            fresh_round, golden_round, rtol=1e-8, atol=1e-10
        ), f"cnn/{name} gamma trace drifted from the golden"


def test_cnn_federation_uses_batched_backend():
    """Each lockstep iteration of the CNN goldens is one program call
    over all four workers."""
    federation = build_cnn_federation()
    program = federation._engine
    rows = []
    gradient_all = program.gradient_all

    def counted(params, *args):
        rows.append(params.shape[0])
        return gradient_all(params, *args)

    program.gradient_all = counted
    cls, kwargs = CNN_ALGORITHMS["FedAvg"]
    cls(federation, **kwargs).run(6, eval_every=6)
    assert rows == [4] * 6


def _regenerate() -> None:
    goldens = {name: run_algorithm(name) for name in sorted(ALGORITHMS)}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=1))
    print(f"wrote {GOLDEN_PATH} ({len(goldens)} algorithms)")
    cnn_goldens = {
        name: run_cnn_algorithm(name) for name in sorted(CNN_ALGORITHMS)
    }
    CNN_GOLDEN_PATH.write_text(json.dumps(cnn_goldens, indent=1))
    print(f"wrote {CNN_GOLDEN_PATH} ({len(cnn_goldens)} algorithms)")


if __name__ == "__main__":
    _regenerate()
