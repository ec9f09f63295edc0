#!/usr/bin/env python
"""Run a fixed matrix of seeded runs and digest each one, field by field.

A numerics change that claims to be bit-exact runs this on the parent
commit and on the change, then diffs the two files::

    python tools/fingerprint.py run --out change.json
    PYTHONPATH=../parent/src:../parent \\
        python tools/fingerprint.py run --out parent.json
    python tools/fingerprint.py --diff parent.json change.json

The tool appends this checkout to ``sys.path`` after anything on
``PYTHONPATH``, so the second command fingerprints the other checkout's
library, goldens and workloads with this tool.  BLAS runs on one thread
unless the environment says otherwise: the thread count can change a
GEMM's summation order, so both sides must share it.

The matrix (``MATRIX``):

* ``sync/<name>/batched``: the 15 sync goldens of
  ``tests/integration/test_golden_trajectories.py`` (the suffix keeps
  the names of files written while a loop backend still had rows of
  its own);
* ``cnn/<name>/batched``: the 3 CNN goldens;
* ``faults/<name>/<plan>/<policy>``: the 15 sync goldens under a fault
  plan: the zero plan once per golden, and each single-kind plan of
  ``FAULT_PLANS`` under every degradation policy.  The two-tier goldens
  leave out the edge-outage and staleness plans: their rounds read
  neither the edge mask nor the staleness buffer.  A row whose plan
  realized no event of its kind is recorded as an error;
* ``e2e/<workload>/seed<s>``: the four ``benchmarks/e2e`` workloads at
  seeds 1 and 2, built by ``benchmarks.e2e.workloads.build`` at their
  full plan, run without checkpoints or the monitor;
* ``async/<name>/q<quorum>/<clean|faults>``: AsyncHierAdMo and
  AsyncFedAvg on the golden federation at quorum 1.0 (the default
  deployment) and 0.5 (the stragglers of
  ``tests/algorithms/test_async_equivalence.py``), without and with
  ``ASYNC_FAULTS``;
* four more event-clock rows, each on state that a wave of worker
  steps must keep in event order: ``async/AsyncHierAdMo/diverging``
  (η=1e6 on an 8-worker MSE federation with stragglers and message
  faults, stopping mid-run), ``async/AsyncHierAdMo/resnet10`` (batch
  norm's running buffers at quorum 0.5 with ``ASYNC_FAULTS``),
  ``async/AsyncHierAdMo/track-mu`` (eq. 30's norms) and
  ``async/AsyncFedAvg/eta-schedule`` (a per-step η);
* ``population/<name>``: HierAdMo, FedNAG, FedADC and AsyncHierAdMo on
  the sampled 24-client population with uneven ``ListShards`` of
  ``tests/population/test_virtual_equivalence.py``, and
  ``population/HierAdMo/short-shards``: 8 clients with shards of 40 and
  5 samples at batch 16, whose rebinds switch between equal and mixed
  batch lengths;
* ``lifecycle/<clock>``: HierAdMo on the lockstep clock and
  AsyncHierAdMo at quorum 0.5 with faults on the event clock, run under
  a ring-buffer monitor with the default health monitors and a
  ``CheckpointManager`` saving every ``CHECKPOINT_EVERY`` iterations;
* ``resume/<clock>``: the same two runs crash at an iteration that is
  not a checkpoint, and a fresh instance resumes from the latest one;
* ``sim/q<quorum>``: ``EventDrivenSimulator`` on 16 workers under 4
  edges with stragglers, at quorum 1.0, 0.75 and 0.5;
* ``replay/<three-tier|two-tier>/<case>``: the Fig. 2(h)/(l) replay,
  ``EventDrivenSimulator`` at quorum 1.0, three-tier and flat, on 8
  workers under uneven edges: clean, with stragglers, and at a T that
  is not a multiple of τ (``REPLAY_CASES``).

Each run records its history series as ``float.hex`` (iterations,
accuracies, losses, ``eval_times``, ``gamma_trace``), the divergence
flags, the comm ledger, ``fault_summary``, a sha256 per
``checkpoint_arrays()`` entry, ``checkpoint_values()``, and every
batch-norm running buffer.  Lifecycle runs add ``monitor.events``: each
event's kind, iteration and simulated time (``float.hex``), plus the
reason of each ``checkpoint_saved``; wall time, RSS, paths and sizes
vary from run to run and are left out.  Lifecycle and resume runs add
``checkpoints.driver``: the sha256 of each saved checkpoint's driver
state, as canonical JSON.  Simulator rows digest the edge and cloud
round records and ``iteration_times`` (floats as ``float.hex``);
replay rows digest ``iteration_times`` and the energy estimate.
``--diff`` names every run and field that moved, with the largest
relative change of each moved series, and exits 1 when anything moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # Before numpy loads.  An importer (the tests) keeps its own thread
    # settings and import path.
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, "1")
    sys.path += [str(REPO_ROOT / "src"), str(REPO_ROOT)]

import numpy as np  # noqa: E402

from benchmarks.e2e.workloads import WORKLOADS, build as build_workload  # noqa: E402
from repro.algorithms import (  # noqa: E402
    ASYNC_ALGORITHM_REGISTRY, AsyncHierAdMo, TwoTierAlgorithm,
)
from repro.checkpoint import CheckpointManager  # noqa: E402
from repro.checkpoint.format import read_manifest  # noqa: E402
from repro.core import Federation, HierAdMo  # noqa: E402
from repro.data import (  # noqa: E402
    Dataset, make_synthetic_mnist, partition_xclass, train_test_split,
)
from repro.data.shards import ListShards  # noqa: E402
from repro.faults import DEGRADATION_POLICIES, FaultPlan, InjectedCrash  # noqa: E402
from repro.monitoring import RingBufferSink, default_monitors, monitoring  # noqa: E402
from repro.nn.models import (  # noqa: E402
    make_linear_regression, make_logistic_regression, make_resnet,
)
from repro.population import ClientRegistry, PopulationBinder  # noqa: E402
from repro.simulation import (  # noqa: E402
    AsyncDeployment, EventDrivenSimulator, add_stragglers, estimate_energy,
    worker_device_pool,
)
from repro.topology import Topology  # noqa: E402
from tests.algorithms.test_async_equivalence import straggler_deployment  # noqa: E402
from tests.integration import test_golden_trajectories as goldens  # noqa: E402
from tests.population import test_virtual_equivalence as population  # noqa: E402

SERIES = ("iterations", "test_accuracy", "test_loss", "train_loss", "eval_times")
E2E_SEEDS = (1, 2)
ASYNC_NAMES = ("AsyncHierAdMo", "AsyncFedAvg")
# Stale uploads three rounds deep trip the staleness monitor, so the
# event-clock lifecycle row also saves checkpoints for alerts.
ASYNC_FAULTS = FaultPlan(
    seed=7, worker_dropout=0.1, edge_outage=0.05, msg_loss=0.1,
    msg_duplication=0.05, msg_staleness=0.2, staleness_intervals=3,
)
# One plan per fault kind, with the counter that shows it realized.
# The loss plan allows no retries: at this rate the default three
# deliver nearly every transfer, so no two-tier history would move.
FAULT_PLANS = {
    "zero": (FaultPlan(), None),
    "dropout": (FaultPlan(seed=2, worker_dropout=0.2), "fault.worker_drop"),
    "outage": (FaultPlan(seed=2, edge_outage=0.3), "fault.edge_outage"),
    "loss": (FaultPlan(seed=2, msg_loss=0.3, max_retries=0), "fault.msg_loss"),
    "duplication": (FaultPlan(seed=2, msg_duplication=0.3), "fault.msg_dup"),
    "staleness": (FaultPlan(seed=2, msg_staleness=0.5), "fault.msg_stale"),
}
THREE_TIER_PLANS = ("outage", "staleness")
POPULATION = {**population.SAMPLED_CASES, **population.ASYNC_SAMPLED_CASES}
POPULATION_NAMES = ("HierAdMo", "FedNAG", "FedADC", "AsyncHierAdMo")
CLOCKS = ("lockstep", "event")
CHECKPOINT_EVERY = 5
# Crash points that are not checkpoint iterations.  The event clock's
# fast groups run ahead of its barriers, so it crashes later than the
# first checkpoint it must have written.
CRASH_AT = {"lockstep": 17, "event": 22}
SIM_QUORUMS = (1.0, 0.75, 0.5)
# Fig. 2(h)/(l) replays: (T, tau, pi, stragglers) per case; the
# two-tier replay syncs every tau*pi iterations.
REPLAY_CASES = {
    "clean": (200, 10, 2, False),
    "stragglers": (200, 10, 2, True),
    "ragged": (37, 5, 3, False),
}
REPLAY_TIERS = ("three-tier", "two-tier")


# ----------------------------------------------------------------------
# The matrix: run name -> callable that builds, runs and digests one
# run on a fresh, fully seeded federation.
# ----------------------------------------------------------------------
def _ran(algorithm, iterations: int, eval_every: int) -> dict:
    return digest(algorithm, algorithm.run(iterations, eval_every=eval_every))


def _golden(name: str, cnn: bool) -> dict:
    if cnn:
        cls, kwargs = goldens.CNN_ALGORITHMS[name]
        federation = goldens.build_cnn_federation()
        iterations = goldens.CNN_ITERATIONS
    else:
        cls, kwargs = goldens.ALGORITHMS[name]
        federation = goldens.build_federation()
        iterations = goldens.TOTAL_ITERATIONS
    return _ran(cls(federation, **kwargs), iterations, goldens.EVAL_EVERY)


def _faulted(name: str, plan_name: str, policy: str) -> dict:
    cls, kwargs = goldens.ALGORITHMS[name]
    algorithm = cls(goldens.build_federation(), **kwargs)
    plan, counter = FAULT_PLANS[plan_name]
    algorithm.attach_faults(plan, policy=policy)
    record = _ran(algorithm, goldens.TOTAL_ITERATIONS, goldens.EVAL_EVERY)
    if counter is not None and not record["fault_summary"]["events"][counter]:
        raise RuntimeError(f"the {plan_name} plan realized no {counter}")
    return record


def _fault_rows(name: str) -> list[tuple[str, str]]:
    """``(plan, policy)`` of every fault row of the golden ``name``."""
    two_tier = issubclass(goldens.ALGORITHMS[name][0], TwoTierAlgorithm)
    return [("zero", DEGRADATION_POLICIES[0])] + [
        (plan, policy)
        for plan in FAULT_PLANS
        if plan != "zero" and not (two_tier and plan in THREE_TIER_PLANS)
        for policy in DEGRADATION_POLICIES
    ]


def _workload(name: str, seed: int) -> dict:
    spec = WORKLOADS[name]
    _, algorithm = build_workload(spec, seed, spec.full)
    return _ran(algorithm, spec.full.iterations, spec.full.eval_every)


def _async_algorithm(name: str, quorum: float):
    _, kwargs = goldens.ALGORITHMS[name.removeprefix("Async")]
    deployment = None if quorum == 1.0 else straggler_deployment(quorum)
    return ASYNC_ALGORITHM_REGISTRY[name](
        goldens.build_federation(), deployment=deployment, **kwargs
    )


def _async(name: str, quorum: float, faulted: bool) -> dict:
    algorithm = _async_algorithm(name, quorum)
    if faulted:
        algorithm.attach_faults(ASYNC_FAULTS)
    return _ran(algorithm, goldens.TOTAL_ITERATIONS, goldens.EVAL_EVERY)


def _diverging() -> dict:
    """AsyncHierAdMo at eta=1e6 on the MSE federation of
    ``tests/core/test_divergence_guard.py`` widened to 2 x 4 workers,
    under stragglers and message faults: it stops mid-run."""
    def dataset(seed):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(20, 5)), rng.integers(0, 3, 20), 3)

    edges = [[dataset(s) for s in (1, 2, 3, 4)], [dataset(s) for s in (5, 6, 7, 8)]]
    federation = Federation(
        make_linear_regression(5, 3, rng=5), edges, edges[0][0], batch_size=8, seed=0
    )
    algorithm = AsyncHierAdMo(
        federation, eta=1e6, tau=3, pi=2,
        deployment=straggler_deployment(0.5, num_workers=8), sim_rng=4,
    )
    algorithm.attach_faults(FaultPlan(
        seed=3, worker_dropout=0.1, msg_loss=0.1, msg_staleness=0.1,
        msg_duplication=0.05,
    ))
    return _ran(algorithm, 60, 6)


def _resnet() -> dict:
    """AsyncHierAdMo on a batch-norm ResNet at quorum 0.5 with faults."""
    corpus = make_synthetic_mnist(240, image_size=8, rng=21)
    train, test = train_test_split(corpus, 0.25, rng=22)
    parts = partition_xclass(train, 4, 3, rng=23)
    model = make_resnet("resnet10", 1, 10, width_multiplier=1 / 16, rng=24)
    federation = Federation(model, [parts[0:2], parts[2:4]], test, batch_size=8, seed=25)
    algorithm = AsyncHierAdMo(
        federation, eta=0.05, tau=3, pi=2, deployment=straggler_deployment(0.5)
    )
    algorithm.attach_faults(ASYNC_FAULTS)
    return _ran(algorithm, goldens.CNN_ITERATIONS, goldens.EVAL_EVERY)


def _track_mu() -> dict:
    """AsyncHierAdMo at quorum 0.5 recording eq. 30's norms, in order
    (checkpoint values, so digested with the rest)."""
    _, kwargs = goldens.ALGORITHMS["HierAdMo"]
    algorithm = AsyncHierAdMo(
        goldens.build_federation(), deployment=straggler_deployment(0.5),
        track_mu=True, **kwargs,
    )
    return _ran(algorithm, goldens.TOTAL_ITERATIONS, goldens.EVAL_EVERY)


def _eta_schedule() -> dict:
    """AsyncFedAvg at quorum 0.5 whose eta halves every 5 iterations."""
    algorithm = _async_algorithm("AsyncFedAvg", 0.5)
    algorithm.eta_schedule = lambda t: 0.05 * 0.5 ** (t // 5)
    return _ran(algorithm, goldens.TOTAL_ITERATIONS, goldens.EVAL_EVERY)


def _population(name: str) -> dict:
    cls, kwargs = POPULATION[name]
    algorithm = population.make_sampled_algorithm(cls, kwargs, uneven=True)
    return _ran(algorithm, 36, 6)


def _short_shards() -> dict:
    """The seed-3 cohort starts on the four 5-sample shards (uniform
    batches of 5); the first rebind brings in a 40-sample shard."""
    rng = np.random.default_rng(0)
    shards = ListShards(
        [
            Dataset(rng.normal(size=(n, 6)), rng.integers(0, 3, n), 3)
            for n in (40, 40, 5, 5, 40, 40, 5, 5)
        ]
    )
    binder = PopulationBinder(
        ClientRegistry.from_shards(shards, 2), shards, cohort_per_edge=2, seed=3
    )
    test = Dataset(rng.normal(size=(16, 6)), rng.integers(0, 3, 16), 3)
    binder.build_federation(make_logistic_regression(6, 3, rng=4), test, batch_size=16)
    algorithm = HierAdMo(binder.fed, eta=0.05, tau=2, pi=2)
    algorithm.attach_population(binder)
    return _ran(algorithm, 12, 4)


def _clock_algorithm(clock: str, crash_at: int | None = None):
    """HierAdMo on the lockstep clock; on the event clock, AsyncHierAdMo
    at quorum 0.5 with ``ASYNC_FAULTS``.  ``crash_at`` adds a crash."""
    if clock == "lockstep":
        cls, kwargs = goldens.ALGORITHMS["HierAdMo"]
        algorithm = cls(goldens.build_federation(), **kwargs)
        plan = None
    else:
        algorithm = _async_algorithm("AsyncHierAdMo", 0.5)
        plan = ASYNC_FAULTS
    if crash_at is not None:
        plan = replace(plan or FaultPlan(), crash_iterations=(crash_at,))
    if plan is not None:
        algorithm.attach_faults(plan)
    return algorithm


def _event_digest(event) -> list:
    entry = [
        event.kind,
        event.iteration,
        None if event.sim_time is None else _hex(event.sim_time),
    ]
    if event.kind == "checkpoint_saved":
        entry.append(event.data["reason"])
    return entry


class _DigestingManager(CheckpointManager):
    """Saves every ``CHECKPOINT_EVERY`` iterations and keeps the sha256
    of each saved driver state, read back from the file as canonical
    JSON (retention may delete the file later)."""

    def __init__(self, directory):
        super().__init__(directory, every=CHECKPOINT_EVERY)
        self.driver_digests = []

    def save(self, algorithm, **kwargs):
        path = super().save(algorithm, **kwargs)
        driver = json.dumps(
            read_manifest(path)["driver"], sort_keys=True, separators=(",", ":")
        )
        self.driver_digests.append(hashlib.sha256(driver.encode()).hexdigest())
        return path


def _lifecycle(clock: str) -> dict:
    algorithm = _clock_algorithm(clock)
    sink = RingBufferSink()
    with tempfile.TemporaryDirectory() as tmp, monitoring(
        sinks=[sink], monitors=default_monitors()
    ):
        manager = _DigestingManager(tmp)
        history = algorithm.run(
            goldens.TOTAL_ITERATIONS,
            eval_every=goldens.EVAL_EVERY,
            checkpoints=manager,
        )
    if sink.dropped:
        raise RuntimeError(f"the monitor ring dropped {sink.dropped} events")
    record = digest(algorithm, history)
    record["monitor.events"] = [_event_digest(e) for e in sink.snapshot()]
    record["checkpoints.driver"] = manager.driver_digests
    return record


def _resume(clock: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        manager = _DigestingManager(tmp)
        crashing = _clock_algorithm(clock, crash_at=CRASH_AT[clock])
        try:
            crashing.run(
                goldens.TOTAL_ITERATIONS,
                eval_every=goldens.EVAL_EVERY,
                checkpoints=manager,
            )
        except InjectedCrash:
            pass
        else:
            raise RuntimeError(f"no crash at iteration {CRASH_AT[clock]}")
        restored = manager.load_latest()
    resumed = _clock_algorithm(clock)
    history = resumed.run(
        goldens.TOTAL_ITERATIONS,
        eval_every=goldens.EVAL_EVERY,
        resume_from=restored,
    )
    record = digest(resumed, history)
    record["checkpoints.driver"] = manager.driver_digests
    return record


def _simulated(quorum: float) -> dict:
    topology = Topology.uniform(4, 4, 100)
    devices = add_stragglers(worker_device_pool(topology.num_workers), 0.15, 10.0)
    result = EventDrivenSimulator(
        topology, AsyncDeployment(devices, 8e5, quorum=quorum)
    ).simulate(200, tau=10, pi=2, rng=1)
    return {
        "sim.edge_rounds": canonical([asdict(r) for r in result.edge_rounds]),
        "sim.cloud_rounds": canonical([asdict(r) for r in result.cloud_rounds]),
        "sim.iteration_times": [_hex(v) for v in result.iteration_times],
    }


def _replay(tier: str, case: str) -> dict:
    """One replay on 8 workers under uneven edges, with a payload
    multiplier of 2 folded into the deployment's bytes, digested with
    the energy estimate of the same schedule."""
    total, tau, pi, stragglers = REPLAY_CASES[case]
    topology = Topology([[100] * 3, [100], [100] * 4])
    devices = worker_device_pool(topology.num_workers)
    if stragglers:
        devices = add_stragglers(devices, 0.15, 10.0)
    deployment = AsyncDeployment(devices, 4e5 * 2.0)
    flat = tier == "two-tier"
    sync_every = tau * pi if flat else tau
    result = EventDrivenSimulator(topology, deployment, flat=flat).simulate(
        total, sync_every, pi, rng=5
    )
    energy = estimate_energy(deployment, total, sync_every, flat=flat)
    return {
        "replay.iteration_times": [_hex(v) for v in result.iteration_times],
        "replay.energy": canonical(asdict(energy)),
    }


MATRIX = {
    **{
        f"sync/{name}/batched": partial(_golden, name, False)
        for name in sorted(goldens.ALGORITHMS)
    },
    **{
        f"cnn/{name}/batched": partial(_golden, name, True)
        for name in sorted(goldens.CNN_ALGORITHMS)
    },
    **{
        f"faults/{name}/{plan}/{policy}": partial(_faulted, name, plan, policy)
        for name in sorted(goldens.ALGORITHMS)
        for plan, policy in _fault_rows(name)
    },
    **{
        f"e2e/{name}/seed{seed}": partial(_workload, name, seed)
        for name in WORKLOADS
        for seed in E2E_SEEDS
    },
    **{
        f"async/{name}/q{quorum}/{'faults' if faulted else 'clean'}": partial(
            _async, name, quorum, faulted
        )
        for name in ASYNC_NAMES
        for quorum in (1.0, 0.5)
        for faulted in (False, True)
    },
    "async/AsyncHierAdMo/diverging": _diverging,
    "async/AsyncHierAdMo/resnet10": _resnet,
    "async/AsyncHierAdMo/track-mu": _track_mu,
    "async/AsyncFedAvg/eta-schedule": _eta_schedule,
    **{
        f"population/{name}": partial(_population, name)
        for name in POPULATION_NAMES
    },
    "population/HierAdMo/short-shards": _short_shards,
    **{f"lifecycle/{clock}": partial(_lifecycle, clock) for clock in CLOCKS},
    **{f"resume/{clock}": partial(_resume, clock) for clock in CLOCKS},
    **{f"sim/q{quorum}": partial(_simulated, quorum) for quorum in SIM_QUORUMS},
    **{
        f"replay/{tier}/{case}": partial(_replay, tier, case)
        for tier in REPLAY_TIERS
        for case in REPLAY_CASES
    },
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _hex(value) -> str:
    return float(value).hex()


def canonical(value):
    """JSON-able, exact form: floats as ``float.hex``, arrays as sha256."""
    if isinstance(value, np.ndarray):
        return _sha256(value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _hex(value)
    return value


def _sha256(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def digest(algorithm, history) -> dict:
    """One run's fingerprint, field by field."""
    record = {
        f"history.{series}": [_hex(v) for v in getattr(history, series)]
        for series in SERIES
    }
    record["history.gamma_trace"] = [
        [_hex(trace[edge]) for edge in sorted(trace)]
        for trace in history.gamma_trace
    ]
    record["history.diverged"] = [history.diverged, history.diverged_at]
    record["comm"] = canonical(history.comm.to_dict())
    record["fault_summary"] = canonical(history.fault_summary)
    for name, array in algorithm.checkpoint_arrays().items():
        record[f"arrays.{name}"] = _sha256(array)
    for name, value in algorithm.checkpoint_values().items():
        record[f"values.{name}"] = canonical(value)
    layers = [
        layer
        for layer in algorithm.fed.model.module.modules()
        if hasattr(layer, "get_buffers")
    ]
    for index, layer in enumerate(layers):
        for name, buffer in layer.get_buffers().items():
            record[f"buffers.{index}.{name}"] = [_hex(v) for v in buffer.ravel()]
    return record


def fingerprint(names=None, *, progress=None) -> dict:
    """Run ``names`` (default: the whole matrix) and digest each run.

    A run that raises is recorded as ``{"error": <traceback>}``, so the
    diff names it instead of the whole matrix failing.
    """
    import repro

    runs = {}
    seconds = {}
    for name in names if names is not None else MATRIX:
        started = time.perf_counter()
        try:
            runs[name] = MATRIX[name]()
        except Exception:
            runs[name] = {"error": traceback.format_exc()}
        seconds[name] = round(time.perf_counter() - started, 3)
        if progress is not None:
            progress(f"{name}: {seconds[name]:.2f} s")
    return {
        # Not compared: where the numbers came from.
        "meta": {
            "repro": str(Path(repro.__file__).resolve().parent),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seconds": seconds,
        },
        "runs": runs,
    }


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def _floats(value) -> list[float] | None:
    """A float, or a (nested) series of them, as one flat list.

    ``None`` when ``value`` holds anything but ``float.hex`` strings.
    """
    if isinstance(value, list):
        flat = []
        for item in value:
            floats = _floats(item)
            if floats is None:
                return None
            flat += floats
        return flat
    if isinstance(value, str) and ("0x" in value or value in ("inf", "-inf", "nan")):
        return [float.fromhex(value)]
    return None


def _relative_change(a: list[float], b: list[float]) -> float:
    """Largest ``|a - b| / max(|a|, |b|)`` over the moved entries."""
    largest = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return largest


_MISSING = object()


def _describe(field: str, a, b) -> str:
    if a is _MISSING or b is _MISSING:
        return "missing in " + ("A" if a is _MISSING else "B")
    if field.startswith("arrays."):
        return "sha256 changed"
    fa, fb = _floats(a), _floats(b)
    if fa is None or fb is None:
        return "changed"
    if len(fa) != len(fb):
        return f"length {len(fa)} -> {len(fb)}"
    return f"max rel change {_relative_change(fa, fb):.3g}"


def diff(a: dict, b: dict) -> list[tuple[str, str, str]]:
    """``(run, field, description)`` for every field that moved."""
    moved = []
    runs_a, runs_b = a["runs"], b["runs"]
    for run in sorted(set(runs_a) | set(runs_b)):
        if run not in runs_a or run not in runs_b:
            side = "A" if run not in runs_a else "B"
            moved.append((run, "*", f"run missing in {side}"))
            continue
        fields_a, fields_b = runs_a[run], runs_b[run]
        for field in sorted(set(fields_a) | set(fields_b)):
            value_a = fields_a.get(field, _MISSING)
            value_b = fields_b.get(field, _MISSING)
            if value_a != value_b:
                moved.append((run, field, _describe(field, value_a, value_b)))
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=["run"])
    parser.add_argument("--out", type=Path, help="where `run` writes the fingerprint")
    parser.add_argument(
        "--diff", nargs=2, type=Path, metavar=("A", "B"),
        help="compare two fingerprint files; exit 1 if any field moved",
    )
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(path.read_text()) for path in args.diff)
        moved = diff(a, b)
        total = len(set(a["runs"]) | set(b["runs"]))
        runs_moved = sorted({run for run, _, _ in moved})
        for run in runs_moved:
            print(f"moved: {run}")
            for _, field, description in (m for m in moved if m[0] == run):
                print(f"  {field}: {description}")
        if moved:
            print(f"{len(runs_moved)} of {total} runs moved ({len(moved)} fields)")
            return 1
        print(f"no field moved in {total} runs")
        return 0
    if args.command != "run" or args.out is None:
        parser.error("give `run --out FILE` or `--diff A B`")
    started = time.perf_counter()
    document = fingerprint(progress=lambda line: print(line, flush=True))
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True))
    errors = [name for name, run in document["runs"].items() if "error" in run]
    print(
        f"wrote {args.out}: {len(document['runs'])} runs, {len(errors)} errors, "
        f"{time.perf_counter() - started:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
