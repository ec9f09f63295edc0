"""Event-driven deployment simulation bench (extension).

Quantifies how much a straggler-tolerant edge quorum buys under
heavy-tail worker delays, plus three gates on the execution engine
itself, recorded to ``BENCH_eventsim.json``:

* event-processing throughput of a full async training run, gated as
  events per probe loop (``benchmarks.timing.rate_per_probe``),
* its exact companion, ``engine_waves``: the waves (``local_steps``
  calls) in which seed-1 ``async_stragglers`` runs its 14,200 worker
  steps, pinned at the recorded count, so an engine that flushes its
  wave more often fails on any host, and
* async-vs-sync simulated time-to-accuracy under stragglers — the
  whole point of quorum-based closure is that partial rounds reach the
  same accuracy in far less simulated wall-clock time.
"""

import time

import numpy as np

from repro.algorithms import AsyncHierAdMo
from repro.core import Federation
from repro.data import Dataset
from repro.nn.models import make_mlp
from repro.simulation import (
    AsyncDeployment,
    EventDrivenSimulator,
    add_stragglers,
    worker_device_pool,
)
from repro.topology import Topology

from .conftest import run_once
from .e2e.workloads import WORKLOADS, build
from .recorder import record_bench
from .timing import rate_per_probe

PAYLOAD = 8e5  # ~100k float64 parameters

# Engine-gate run shape: long enough for accuracy to climb well above
# the initial eval, short enough to keep the bench under a second.
TRAIN_ITERATIONS = 60
MIN_EVENTS_PER_SEC = 200.0
# Seed-1 async_stragglers at its full plan: 14,200 worker steps, run in
# 3,091 waves since the pure fault queries stopped flushing the wave
# (4,554 when each upload's transfer_outcome flushed it).
WAVES_STEPS = 14_200
MAX_WAVES = 3_091


def _make_federation(num_edges=2, per_edge=4, seed=7):
    rng = np.random.default_rng(seed)
    edges = [
        [
            Dataset(rng.normal(size=(64, 20)), rng.integers(0, 5, 64), 5)
            for _ in range(per_edge)
        ]
        for _ in range(num_edges)
    ]
    model = make_mlp(20, (16,), 5, rng=seed + 1)
    return Federation(model, edges, edges[0][0], batch_size=8, seed=seed)


def _straggler_deployment(quorum, num_workers=8):
    devices = add_stragglers(worker_device_pool(num_workers), 0.25, 10.0)
    return AsyncDeployment(devices, payload_bytes=PAYLOAD, quorum=quorum)


def test_quorum_under_stragglers(benchmark):
    topo = Topology.uniform(4, 4, 100)
    devices = add_stragglers(
        worker_device_pool(topo.num_workers), 0.15, 10.0
    )

    def evaluate():
        out = {}
        for quorum in (1.0, 0.75, 0.5):
            result = EventDrivenSimulator(
                topo, AsyncDeployment(devices, PAYLOAD, quorum=quorum)
            ).simulate(200, tau=10, pi=2, rng=1)
            late = sum(
                len(record.workers_late) for record in result.edge_rounds
            )
            folded = sum(
                len(record.workers_stale) for record in result.edge_rounds
            )
            out[quorum] = (result.total_time, late, folded)
        return out

    results = run_once(benchmark, evaluate)
    print("\nquorum   total time   late uploads   folded stale")
    for quorum, (total, late, folded) in results.items():
        print(f"{quorum:6.2f} {total:10.1f}s   {late:12d}   {folded:12d}")
    assert results[0.5][0] < results[1.0][0]
    assert results[0.75][0] < results[1.0][0]


def test_bench_engine_event_throughput(benchmark):
    """Events/sec through a full async HierAdMo training run.

    The gated number is ``events_per_probe``: the best of three runs,
    each run's events/s times the machine-speed probe bracketing it.
    """

    counts = []

    def measure():
        algorithm = AsyncHierAdMo(
            _make_federation(),
            tau=5,
            pi=2,
            deployment=_straggler_deployment(0.5),
        )
        start = time.perf_counter()
        algorithm.run(TRAIN_ITERATIONS, eval_every=TRAIN_ITERATIONS)
        elapsed = time.perf_counter() - start
        counts.append(algorithm.runner.queue.processed)
        return counts[-1], elapsed

    per_probe, rate, probe_seconds = run_once(
        benchmark, rate_per_probe, measure
    )
    processed = counts[-1]
    print(f"\nevents processed: {processed}")
    print(f"throughput:       {rate:10.0f} events/s")
    print(f"per probe loop:   {per_probe:10.2f} events "
          f"(probe {probe_seconds * 1e3:.3f} ms)")
    record_bench(
        "eventsim",
        "engine_event_throughput",
        {
            "events_processed": int(processed),
            "events_per_second": round(rate, 1),
            "probe_seconds": probe_seconds,
            "events_per_probe": round(per_probe, 3),
            "train_iterations": TRAIN_ITERATIONS,
            "quorum": 0.5,
        },
    )
    assert rate > MIN_EVENTS_PER_SEC


def test_bench_engine_waves():
    """The waves of seed-1 ``async_stragglers``, counted exactly.

    Built as ``tools/fingerprint.py`` builds it (the e2e workload at its
    full plan, no checkpoints, no monitor); every ``local_steps`` call
    the engine makes is one wave.
    """
    spec = WORKLOADS["async_stragglers"]
    _, algorithm = build(spec, 1, spec.full)
    calls = []
    local_steps = algorithm.local_steps

    def counted(workers, ts, times):
        calls.append(len(workers))
        return local_steps(workers, ts, times)

    algorithm.local_steps = counted
    algorithm.run(spec.full.iterations, eval_every=spec.full.eval_every)
    waves, steps = len(calls), sum(calls)
    print(f"\n[bench] async_stragglers seed 1: {steps} steps in {waves} "
          f"waves ({steps / waves:.2f} per wave, pin {MAX_WAVES})")
    record_bench(
        "eventsim",
        "engine_waves",
        {
            "workload": "async_stragglers",
            "seed": 1,
            "steps": steps,
            "waves": waves,
            "steps_per_wave": round(steps / waves, 3),
            "threshold": MAX_WAVES,
        },
    )
    assert steps == WAVES_STEPS
    assert waves <= MAX_WAVES, f"{waves} waves (pin {MAX_WAVES})"


def test_bench_async_vs_sync_time_to_accuracy(benchmark):
    """Acceptance gate: under stragglers, quorum-based async HierAdMo
    reaches the common target accuracy in less *simulated* wall-clock
    time than the full-barrier (quorum=1) run."""

    def evaluate():
        histories = {}
        for label, quorum in (("sync", 1.0), ("async", 0.5)):
            algorithm = AsyncHierAdMo(
                _make_federation(),
                tau=5,
                pi=2,
                deployment=_straggler_deployment(quorum),
            )
            histories[label] = algorithm.run(
                TRAIN_ITERATIONS, eval_every=10
            )
        return histories

    histories = run_once(benchmark, evaluate)
    target = min(h.final_accuracy for h in histories.values())
    # The target must require actual training, otherwise both arms hit
    # it at the t=0 eval and the comparison is vacuous.
    assert all(target > h.test_accuracy[0] for h in histories.values())
    times = {
        label: history.time_to_accuracy(target)
        for label, history in histories.items()
    }
    print(f"\ntarget accuracy:  {target:.4f}")
    for label, reached in times.items():
        print(f"{label:5s} time-to-accuracy: {reached:10.1f}s simulated")
    record_bench(
        "eventsim",
        "async_vs_sync_time_to_accuracy",
        {
            "target_accuracy": round(target, 6),
            "sync_seconds": round(times["sync"], 2),
            "async_seconds": round(times["async"], 2),
            "speedup": round(times["sync"] / times["async"], 2),
            "train_iterations": TRAIN_ITERATIONS,
            "async_quorum": 0.5,
            "straggler_probability": 0.25,
            "straggler_factor": 10.0,
        },
    )
    assert times["async"] < times["sync"]
