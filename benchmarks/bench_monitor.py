"""Monitoring overhead benchmarks (PR acceptance: disabled ≤ 2%).

Three gates on the run-event stream:

* ``null_monitor_overhead`` — the instrumented HierAdMo step with the
  null slot installed (the default) against an unmonitored replica of
  the same step body, timed A/B interleaved; the guards must cost ≤ 2%
  (best of repeats), and the per-pair overhead quartiles are recorded
  beside it;
* ``null_monitor_calls`` — the same step's Python calls into the
  instrumentation modules, counted exactly, at most
  ``MAX_NULL_CALLS_PER_STEP``: the timing gate's deterministic
  companion, which fails on any host when a call joins the null path;
* ``jsonl_sink_throughput`` — events per second through a live
  :class:`RunMonitor` into a line-buffered JSONL sink, pinned to a
  floor so streaming never silently becomes the bottleneck, and gated
  as events per probe loop (``benchmarks.timing.rate_per_probe``).

Results land in ``BENCH_monitor.json`` at the repo root.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import Federation, HierAdMo
from repro.data import Dataset
from repro.monitoring import JSONLStreamSink, RunMonitor
from repro.nn.models import make_mlp
from repro.telemetry import get_tracer, set_tracer

from .recorder import record_bench
from .timing import instrumentation_calls, rate_per_probe, time_interleaved

# Acceptance threshold for the disabled-monitoring ("null monitor") path.
MAX_DISABLED_OVERHEAD = 0.02
# Calls into the instrumentation modules per step at tau=pi=1: the
# slot's getter and one null span per phase and per adapted edge.
MAX_NULL_CALLS_PER_STEP = 28
# Floor for streaming-sink throughput (events per second).  Measured
# ~85k/s on the reference container; the pin sits far below so only a
# real regression (per-event re-serialization, unbuffered writes) trips.
MIN_SINK_EVENTS_PER_SEC = 20_000


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
    # tau=pi=1: every step crosses both instrumentation points (edge and
    # cloud round), the worst case for the monitoring guard.
    algo = HierAdMo(fed, tau=1, pi=1)
    algo.history = fed.new_history("bench", {})
    algo._setup()
    return fed, algo


def _unmonitored_step(algo, t):
    """``FLAlgorithm._step`` with no monitoring calls, for the baseline.

    The three-tier ``_aggregate`` inlined minus its ``tracer.monitored``
    guards and emits; everything else, spans included, is the live code.
    """
    tracer = get_tracer()
    with tracer.span("worker_step"):
        rows = algo._iteration_rows()
        loss = algo._gradient_iteration(rows)
        algo._local_update(rows)
    if t % algo.tau == 0:
        with tracer.span("edge_agg"):
            held = {}
            transfers = 0
            for edge, rows, outcome in algo._edge_rounds(t):
                held[edge] = algo._edge_merge(edge, rows, outcome)
                transfers += outcome.events
            if transfers:
                algo.history.comm.record_worker_edge(transfers)
        if algo._records_gammas:
            algo.history.record_gammas(held)
    if t % (algo.tau * algo.pi) == 0:
        with tracer.span("cloud_agg"):
            outcome = algo._cloud_round(t)
            if not outcome.skip:
                algo._cloud_merge(outcome)
                algo.history.comm.record_edge_cloud(outcome.events)
    return loss


def test_bench_null_monitor_overhead():
    """Null-monitor step within 2% of the unmonitored replica."""
    set_tracer(None)  # the default, stated explicitly
    fed, algo = _make_algo()
    clock = iter(range(10**9))

    def unmonitored():
        _unmonitored_step(algo, next(clock))

    def live():
        algo._step(next(clock))

    unmonitored()  # warm-up both paths
    live()
    # A/B interleaved: a slow stretch of the machine hits both sides.
    unmonitored_runs, live_runs = time_interleaved([unmonitored, live])
    unmonitored_time, disabled_time = min(unmonitored_runs), min(live_runs)

    overhead = disabled_time / unmonitored_time - 1.0
    # Overhead of each interleaved repeat pair: the spread the gated
    # best-of ratio sits in.
    pairs = np.quantile(
        np.array(live_runs) / np.array(unmonitored_runs) - 1.0,
        [0.25, 0.5, 0.75],
    )
    print(
        f"\n[bench] monitoring overhead, {fed.num_workers} workers, "
        f"dim={fed.dim}: unmonitored {unmonitored_time * 1e6:.0f} us, "
        f"null monitor {disabled_time * 1e6:.0f} us ({overhead:+.1%}; "
        f"per-pair quartiles {pairs[0]:+.1%} / {pairs[1]:+.1%} / "
        f"{pairs[2]:+.1%})"
    )
    record_bench("monitor", "null_monitor_overhead", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "unmonitored_us": unmonitored_time * 1e6,
        "disabled_us": disabled_time * 1e6,
        "disabled_overhead": overhead,
        "pair_overhead_quartiles": pairs.tolist(),
        "threshold": MAX_DISABLED_OVERHEAD,
    })
    assert overhead <= MAX_DISABLED_OVERHEAD, (
        f"null-monitor step {overhead:+.1%} over the unmonitored "
        f"baseline (budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_bench_null_monitor_calls():
    """Instrumentation calls of one null-slot step stay at the pin."""
    set_tracer(None)
    _, algo = _make_algo()
    calls = instrumentation_calls(algo)
    print(f"\n[bench] null instrumentation: {calls} calls per step")
    record_bench("monitor", "null_monitor_calls", {
        "tau": algo.tau,
        "pi": algo.pi,
        "calls_per_step": calls,
        "threshold": MAX_NULL_CALLS_PER_STEP,
    })
    assert calls <= MAX_NULL_CALLS_PER_STEP, (
        f"null-slot step makes {calls} instrumentation calls "
        f"(pin {MAX_NULL_CALLS_PER_STEP})"
    )


def test_bench_jsonl_sink_throughput(tmp_path):
    """Streamed events per second through the hub stays above the pin.

    The gated number is ``events_per_probe``: the best of three runs,
    each run's events/s times the machine-speed probe bracketing it.
    """
    events = 20_000

    def measure():
        sink = JSONLStreamSink(tmp_path / "bench.jsonl")
        hub = RunMonitor(sinks=[sink])
        start = time.perf_counter()
        for i in range(events):
            hub.emit(
                "eval",
                iteration=i,
                accuracy=0.5,
                test_loss=0.5,
                train_loss=0.5,
                total_bytes=float(i),
            )
        elapsed = time.perf_counter() - start
        hub.close()
        return events, elapsed

    per_probe, per_sec, probe_seconds = rate_per_probe(measure)
    per_event_us = 1e6 / per_sec
    print(
        f"\n[bench] jsonl sink: {per_sec:,.0f} events/s "
        f"({per_event_us:.1f} us/event, {events} events), "
        f"{per_probe:.2f} events per probe loop"
    )
    record_bench("monitor", "jsonl_sink_throughput", {
        "events": events,
        "events_per_sec": per_sec,
        "per_event_us": per_event_us,
        "probe_seconds": probe_seconds,
        "events_per_probe": per_probe,
        "floor_events_per_sec": MIN_SINK_EVENTS_PER_SEC,
    })
    assert per_sec >= MIN_SINK_EVENTS_PER_SEC, (
        f"streaming sink at {per_sec:,.0f} events/s, below the "
        f"{MIN_SINK_EVENTS_PER_SEC:,} floor"
    )
