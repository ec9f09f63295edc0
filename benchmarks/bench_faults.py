"""Fault-injection overhead benchmark (PR acceptance: zero plan ≤ 2%).

Attaching the all-zero :class:`~repro.faults.FaultPlan` keeps the
injector inactive: it draws nothing, every round resolves to all
candidates at their cached weights through the same code a run with no
plan takes, and the numerics are bit-exact (see ``tests/faults``).  The
runtime must stay within 2% of a run with no plan attached at all.
This bench times full short HierAdMo runs both ways on identically
seeded federations and records the ratio to ``BENCH_faults.json``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core import Federation, HierAdMo
from repro.data import Dataset
from repro.faults import FaultPlan
from repro.nn.models import make_mlp

from .recorder import record_bench

# Acceptance threshold for the attached-but-all-zero plan.
MAX_ZERO_PLAN_OVERHEAD = 0.02
ITERATIONS = 40


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
