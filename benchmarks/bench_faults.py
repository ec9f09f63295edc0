"""Fault-injection overhead benchmark (PR acceptance: zero plan ≤ 2%).

Attaching the all-zero :class:`~repro.faults.FaultPlan` keeps the
injector inactive: it draws nothing, every round resolves to all
candidates at their cached weights through the same code a run with no
plan takes, and the numerics are bit-exact (see ``tests/faults``).  The
runtime must stay within 2% of a run with no plan attached at all.
This bench times full short HierAdMo runs both ways on identically
seeded federations and records the ratio to ``BENCH_faults.json``.

The timing gate depends on host noise, so it has an exact companion,
``zero_plan_calls``: the Python calls into ``repro/faults/`` during one
warmed-up lockstep iteration (the clock's per-iteration ``maybe_crash``
and ``worker_mask`` calls plus ``_step``) at τ = π = 1, where every
round fires, counted once with the zero plan and once with no plan.
The zero-plan count is pinned at ``MAX_ZERO_PLAN_CALLS``; one more
injector call on the iteration fails it on any host.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.core import Federation, HierAdMo
from repro.data import Dataset
from repro.faults import FaultPlan
from repro.nn.models import make_mlp

from .recorder import record_bench
from .timing import calls_into

# Acceptance threshold for the attached-but-all-zero plan.
MAX_ZERO_PLAN_OVERHEAD = 0.02
ITERATIONS = 40
# Python calls into repro/faults/ in one zero-plan iteration at tau=pi=1
# (no plan: 7).
MAX_ZERO_PLAN_CALLS = 25


def _make_federation(num_edges=2, per_edge=4):
    rng = np.random.default_rng(3)
    edges = [
        [
            Dataset(rng.normal(size=(64, 20)), rng.integers(0, 5, 64), 5)
            for _ in range(per_edge)
        ]
        for _ in range(num_edges)
    ]
    model = make_mlp(20, (16,), 5, rng=4)
    return Federation(model, edges, edges[0][0], batch_size=8, seed=5)


def _timed_run(attach_zero_plan: bool) -> float:
    """Seconds for one fresh short HierAdMo run."""
    algo = HierAdMo(_make_federation(), tau=5, pi=2)
    if attach_zero_plan:
        algo.attach_faults(FaultPlan(seed=0))
    start = time.perf_counter()
    algo.run(ITERATIONS, eval_every=ITERATIONS)
    return time.perf_counter() - start


def test_bench_zero_plan_overhead():
    """A run with the all-zero plan attached within 2% of no plan."""
    _timed_run(False)  # warm-up (imports, caches)
    _timed_run(True)
    # Interleave the two arms so scheduler/thermal drift cancels out of
    # the best-of comparison instead of biasing one side.
    baseline = zero_plan = math.inf
    for _ in range(9):
        baseline = min(baseline, _timed_run(False))
        zero_plan = min(zero_plan, _timed_run(True))

    overhead = zero_plan / baseline - 1.0
    print(
        f"\n[bench] fault-plan overhead over {ITERATIONS} iterations: "
        f"no plan {baseline * 1e3:.1f} ms, zero plan "
        f"{zero_plan * 1e3:.1f} ms ({overhead:+.1%})"
    )
    record_bench("faults", "zero_plan_overhead", {
        "iterations": ITERATIONS,
        "baseline_ms": baseline * 1e3,
        "zero_plan_ms": zero_plan * 1e3,
        "overhead": overhead,
        "threshold": MAX_ZERO_PLAN_OVERHEAD,
    })
    assert overhead <= MAX_ZERO_PLAN_OVERHEAD, (
        f"zero-fault plan run {overhead:+.1%} over the no-plan baseline "
        f"(budget {MAX_ZERO_PLAN_OVERHEAD:.0%})"
    )


def _lockstep_iteration(algo, t: int) -> None:
    """One iteration of the lockstep clock's loop: the injector's
    per-iteration calls, then the step."""
    faults = algo.faults
    if faults is not None:
        faults.maybe_crash(t)
        algo._up_mask = faults.worker_mask(t)
    algo._step(t)


def fault_calls(attach_zero_plan: bool) -> int:
    """Python calls into ``repro/faults/`` in one warmed-up iteration."""
    import repro.faults

    algo = HierAdMo(_make_federation(), tau=1, pi=1)
    if attach_zero_plan:
        algo.attach_faults(FaultPlan(seed=0))
        algo.faults.reset()
    algo.history = algo.fed.new_history("bench", {})
    algo._setup()
    _lockstep_iteration(algo, 1)
    _lockstep_iteration(algo, 2)
    faults_dir = os.path.dirname(repro.faults.__file__) + os.sep
    return calls_into((faults_dir,), lambda: _lockstep_iteration(algo, 3))


def test_bench_zero_plan_calls():
    """The zero plan's injector calls per iteration stay at the pin."""
    no_plan, zero_plan = fault_calls(False), fault_calls(True)
    print(
        f"\n[bench] repro/faults calls per iteration: no plan {no_plan}, "
        f"zero plan {zero_plan}"
    )
    record_bench("faults", "zero_plan_calls", {
        "tau": 1,
        "pi": 1,
        "no_plan_calls": no_plan,
        "calls_per_iteration": zero_plan,
        "threshold": MAX_ZERO_PLAN_CALLS,
    })
    assert zero_plan <= MAX_ZERO_PLAN_CALLS, (
        f"a zero-plan iteration makes {zero_plan} calls into repro/faults "
        f"(pin {MAX_ZERO_PLAN_CALLS})"
    )
