"""Tier-1 checks of the null-instrumentation path.

The authoritative ≤2% bound lives in ``benchmarks/bench_telemetry.py``
(min-of-many timing on a quiet machine); the timing smoke test asserts
a relaxed 10% bound so CI noise cannot flake it while still catching a
regression that puts real work (dict churn, clock reads) on the
disabled path.  The baseline replays the live batched step without its
span, so the median per-pair overhead sits near zero and the bound can
fire.

The call-count test is exact on any host: it holds one step's Python
calls into the instrumentation modules to the pins that
``benchmarks/bench_monitor.py`` and ``benchmarks/bench_telemetry.py``
gate, so one more null span on the step fails it every time.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks import bench_monitor, bench_telemetry
from benchmarks.timing import instrumentation_calls
from repro.core import Federation, HierAdMo
from repro.data import Dataset
from repro.nn.models import make_mlp
from repro.telemetry import set_tracer

pytestmark = pytest.mark.telemetry

RELAXED_OVERHEAD = 0.10


def _pair_overheads(baseline, candidate, pairs=31, iters=10):
    """Per-pair overhead of ``candidate`` over ``baseline``.

    Each pair times both functions back to back, in alternating order,
    so a slow stretch of a shared machine hits both halves of a pair;
    the median over pairs then shrugs off the stretches that split one.
    """
    overheads = []
    for pair in range(pairs):
        first, second = (
            (baseline, candidate) if pair % 2 == 0 else (candidate, baseline)
        )
        elapsed = {}
        for fn in (first, second):
            start = time.perf_counter()
            for _ in range(iters):
                fn()
            elapsed[fn] = time.perf_counter() - start
        overheads.append(elapsed[candidate] / elapsed[baseline] - 1.0)
    return overheads


def _make_algo(tau=10**9, pi=1):
    rng = np.random.default_rng(7)
    edges = [
        [
            Dataset(rng.normal(size=(96, 20)), rng.integers(0, 5, 96), 5)
            for _ in range(6)
        ]
        for _ in range(4)
    ]
    model = make_mlp(20, (16,), 5, rng=8)
    fed = Federation(model, edges, edges[0][0], batch_size=8, seed=9)
    algo = HierAdMo(fed, tau=tau, pi=pi)
    algo.history = fed.new_history("bench", {})
    algo._setup()
    return fed, algo


def _untraced_step(algo, t):
    """``FLAlgorithm._step`` minus its telemetry span.

    The same hooks as the live step: one batched ``gradient_all`` pass
    over the selected rows, the worker rule (lines 5–6), and the
    aggregation schedule (idle at this ``tau``).
    """
    rows = algo._iteration_rows()
    loss = algo._gradient_iteration(rows)
    algo._local_update(rows)
    algo._aggregate(t)
    return loss


def test_disabled_tracer_overhead_smoke():
    set_tracer(None)
    _, algo = _make_algo()
    clock = iter(range(1, 10**9))

    def untraced():
        _untraced_step(algo, next(clock))

    def disabled():
        algo._step(next(clock))

    untraced()
    disabled()
    overhead = float(np.median(_pair_overheads(untraced, disabled)))
    assert overhead <= RELAXED_OVERHEAD, (
        f"null-tracer path {overhead:+.1%} over the untraced baseline "
        f"(median of interleaved pairs; relaxed CI budget "
        f"{RELAXED_OVERHEAD:.0%}; the strict 2% bound is enforced by "
        "benchmarks/bench_telemetry.py)"
    )


@pytest.mark.parametrize(
    "tau, pi, pin",
    [
        # Both rounds fire on every step: the monitoring bench's case.
        (1, 1, bench_monitor.MAX_NULL_CALLS_PER_STEP),
        # No round fires: the telemetry bench's case.
        (10**9, 1, bench_telemetry.MAX_NULL_CALLS_PER_STEP),
    ],
)
def test_null_instrumentation_calls_per_step(tau, pi, pin):
    set_tracer(None)
    _, algo = _make_algo(tau, pi)
    calls = instrumentation_calls(algo)
    assert calls <= pin, (
        f"one null-slot step at tau={tau}, pi={pi} makes {calls} calls "
        f"into the instrumentation modules (pin {pin})"
    )
