"""Telemetry overhead benchmarks (PR acceptance: disabled ≤ 2%).

Three variants of the same HierAdMo lockstep step (``tau`` large
enough that no round fires) on the small-MLP bench federation:

* ``untraced`` — a replica of ``_step`` with no telemetry calls at all,
  calling the same hooks on the same batched ``gradient_all`` backend;
* ``disabled`` — the live instrumented code with the null tracer
  installed (the default), which must stay within 2% of ``untraced``;
* ``enabled``  — the live code with a recording tracer, to document what
  tracing actually costs when you ask for it.

``null_tracer_calls`` is the timing gate's deterministic companion: the
``disabled`` step's Python calls into the instrumentation modules,
counted exactly and pinned at ``MAX_NULL_CALLS_PER_STEP``.

Results land in ``BENCH_telemetry.json`` at the repo root.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.core import Federation, HierAdMo
from repro.data import Dataset
from repro.nn.models import make_mlp

from .recorder import record_bench
from .timing import instrumentation_calls, time_interleaved, time_min

# The acceptance threshold for the disabled-tracer ("null tracer") path.
MAX_DISABLED_OVERHEAD = 0.02
# Calls into the instrumentation modules per step when no round fires:
# the slot's getter, the worker_step null span, the gradient pass's
# backend guard and the aggregation schedule's getter.
MAX_NULL_CALLS_PER_STEP = 6


def _make_bench_federation(num_edges=4, per_edge=6):
    """Small MLP (dim 421), 24 workers across 4 edges."""
    rng = np.random.default_rng(7)
    edges = [
        [
            Dataset(rng.normal(size=(96, 20)), rng.integers(0, 5, 96), 5)
            for _ in range(per_edge)
        ]
        for _ in range(num_edges)
    ]
    model = make_mlp(20, (16,), 5, rng=8)
    return Federation(model, edges, edges[0][0], batch_size=8, seed=9)


def _make_algo():
    fed = _make_bench_federation()
    algo = HierAdMo(fed, tau=10**9, pi=1)
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


def test_bench_null_tracer_overhead():
    """Disabled-tracer iteration within 2% of the untraced replica."""
    telemetry.set_tracer(None)
    fed, algo = _make_algo()
    clock = iter(range(1, 10**9))

    def untraced():
        _untraced_step(algo, next(clock))

    def live():
        algo._step(next(clock))

    untraced()  # warm-up both paths
    live()
    untraced_time, disabled_time = map(
        min, time_interleaved([untraced, live])
    )

    with telemetry.tracing():
        live()  # warm-up the recording path
        enabled_time = time_min(live)

    overhead = disabled_time / untraced_time - 1.0
    enabled_overhead = enabled_time / untraced_time - 1.0
    print(
        f"\n[bench] telemetry overhead, {fed.num_workers} workers, "
        f"dim={fed.dim}: untraced {untraced_time * 1e6:.0f} us, "
        f"disabled {disabled_time * 1e6:.0f} us ({overhead:+.1%}), "
        f"enabled {enabled_time * 1e6:.0f} us ({enabled_overhead:+.1%})"
    )
    record_bench("telemetry", "null_tracer_overhead", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "untraced_us": untraced_time * 1e6,
        "disabled_us": disabled_time * 1e6,
        "enabled_us": enabled_time * 1e6,
        "disabled_overhead": overhead,
        "enabled_overhead": enabled_overhead,
        "threshold": MAX_DISABLED_OVERHEAD,
    })
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"disabled-tracer iteration {overhead:+.1%} over the untraced "
        f"baseline (budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_bench_null_tracer_calls():
    """Instrumentation calls of one null-tracer step stay at the pin."""
    telemetry.set_tracer(None)
    _, algo = _make_algo()
    calls = instrumentation_calls(algo)
    print(f"\n[bench] null instrumentation: {calls} calls per step")
    record_bench("telemetry", "null_tracer_calls", {
        "tau": algo.tau,
        "pi": algo.pi,
        "calls_per_step": calls,
        "threshold": MAX_NULL_CALLS_PER_STEP,
    })
    assert calls <= MAX_NULL_CALLS_PER_STEP, (
        f"null-tracer step makes {calls} instrumentation calls "
        f"(pin {MAX_NULL_CALLS_PER_STEP})"
    )


def test_bench_span_primitives():
    """Raw cost of one span enter/exit, counter bump and observation."""
    tracer = telemetry.Tracer()

    def one_span():
        with tracer.span("bench"):
            pass

    null = telemetry.NULL_TRACER

    def one_null_span():
        with null.span("bench"):
            pass

    span_ns = time_min(one_span, iters=1000) * 1e9
    null_ns = time_min(one_null_span, iters=1000) * 1e9
    count_ns = time_min(lambda: tracer.count("c"), iters=1000) * 1e9
    observe_ns = time_min(lambda: tracer.observe("h", 1.0), iters=1000) * 1e9
    print(
        f"\n[bench] span {span_ns:.0f} ns, null span {null_ns:.0f} ns, "
        f"count {count_ns:.0f} ns, observe {observe_ns:.0f} ns"
    )
    record_bench("telemetry", "primitives", {
        "span_ns": span_ns,
        "null_span_ns": null_ns,
        "count_ns": count_ns,
        "observe_ns": observe_ns,
    })
    # Sanity only: the null span must be far cheaper than a real one.
    assert null_ns < span_ns
