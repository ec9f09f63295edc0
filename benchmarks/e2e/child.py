"""One measured process: build, run, resume, and record what happened.

The runner starts this in a fresh interpreter for every sample
(``python -m benchmarks.e2e child ...``) and reads the JSON record it
writes.  ``t_run_call`` is the monotonic clock at the ``run()`` call;
the parent subtracts its own spawn time from it to get ``setup_s``, so
set-up covers interpreter start, imports, synthetic data, partitioning,
federation build, lowering and algorithm construction.  ``probes`` are
machine-speed readings taken at the start and end of every timed phase.
"""

from __future__ import annotations

import json
import math
import resource
import time
import traceback
from contextlib import ExitStack, nullcontext
from pathlib import Path

from benchmarks.e2e.workloads import WORKLOADS, build, reattach

__all__ = ["run_child"]


def _series(values) -> list:
    """JSON-safe copy of a float series: NaN becomes ``None``."""
    return [None if isinstance(v, float) and math.isnan(v) else v for v in values]


def _history(history) -> dict:
    return {
        "iterations": list(history.iterations),
        "test_accuracy": _series(history.test_accuracy),
        "test_loss": _series(history.test_loss),
        "train_loss": _series(history.train_loss),
        "eval_times": _series(history.eval_times),
        "diverged": bool(history.diverged),
        "diverged_at": history.diverged_at,
        "aborted_by": history.aborted_by,
    }


def _engine(algorithm, wall: float) -> dict | None:
    runner = getattr(algorithm, "runner", None)
    if runner is None:
        return None
    events = runner.queue.processed
    fresh = sum(len(r.workers_included) for r in runner.result.edge_rounds)
    return {
        "events": events,
        "events_per_s": events / wall,
        "fresh_upload_ratio": fresh / runner.uploads_sent if runner.uploads_sent else 0.0,
    }


def probe() -> float:
    """Seconds for a fixed pure-Python loop, best of five.

    The machine's speed at this moment: when other tenants of the host
    slow this core, the loop slows with the workload.
    """
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        best = min(best, time.perf_counter() - started)
    return best


def _measure(
    name: str,
    seed: int,
    traced: bool,
    smoke: bool,
    work: Path,
    trace_out: Path | None,
    probes: list[float],
) -> dict:
    from repro import telemetry
    from repro.checkpoint import CheckpointManager, restore
    from repro.metrics.serialization import save_trace_jsonl
    from repro.monitoring import JSONLStreamSink, monitoring

    from benchmarks.e2e.tracing import Instrumentation, layer_metrics, span_table

    workload = WORKLOADS[name]
    plan = workload.plan(smoke)
    config, algorithm = build(workload, seed, plan)
    ckpt_dir = work / "ckpt"
    manager = CheckpointManager(ckpt_dir, every=plan.checkpoint_every, config=config)
    tracer = telemetry.Tracer() if traced else None
    inst = Instrumentation(tracer) if traced else None

    def span(label):
        return tracer.span(label) if traced else nullcontext()

    def monitored(stack, filename):
        if not workload.monitor:
            return None
        sink = JSONLStreamSink(work / filename)
        stack.enter_context(monitoring(sinks=[sink]))
        return sink

    record: dict = {"probes": probes}
    with ExitStack() as outer:
        if traced:
            outer.enter_context(telemetry.tracing(tracer))
        with ExitStack() as stack:
            sink = monitored(stack, "events.jsonl")
            if traced:
                inst.attach(algorithm, manager, sink)
            probes.append(probe())
            record["t_run_call"] = time.perf_counter()
            with span("run"):
                history = algorithm.run(
                    plan.iterations, eval_every=plan.eval_every, checkpoints=manager
                )
            run_s = time.perf_counter() - record["t_run_call"]
            probes.append(probe())
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        binder = algorithm.population
        main = {
            "engine": _engine(algorithm, run_s),
            "carry_entries": len(binder.carry) if binder is not None else 0,
            "monitoring_events": inst.counts.sink_events if traced else 0,
        }

        started = time.perf_counter()
        with span("checkpoint.restore"):
            resumed, restored = restore(ckpt_dir)
        reattach(workload, resumed, seed)
        with ExitStack() as stack:
            sink = monitored(stack, "events-resumed.jsonl")
            if traced:
                inst.attach(resumed, None, sink)
            with span("run"):
                resumed_history = resumed.run(
                    restored.manifest["total_iterations"],
                    eval_every=restored.manifest["eval_every"],
                    resume_from=restored,
                )
        record["resume_s"] = time.perf_counter() - started
        probes.append(probe())

    record.update(
        run_s=run_s,
        iterations=plan.iterations,
        resume_from=restored.iteration,
        history=_history(history),
        resumed_history=_history(resumed_history),
        ledger={
            "comm": history.comm.to_dict(),
            "resumed_comm": resumed_history.comm.to_dict(),
            "dim": algorithm.fed.dim,
            "payload_multiplier": type(algorithm).payload_multiplier,
        },
    )
    if traced:
        spans = span_table(tracer.records)
        record["trace"] = {
            "run_wall_s": sum(r.duration for r in tracer.records if r.name == "run"),
            "records": len(tracer.records),
            "spans_finished": sum(stats.count for stats in tracer.span_stats.values()),
            "dropped": tracer.dropped,
            "metrics": layer_metrics(
                spans,
                inst,
                comm=record["ledger"]["comm"],
                carry_entries=main["carry_entries"],
                engine=main["engine"],
                monitoring_events=main["monitoring_events"],
            ),
        }
        if trace_out is not None:
            save_trace_jsonl(tracer, trace_out)
    return record


def run_child(
    name: str,
    seed: int,
    traced: bool,
    smoke: bool,
    out: Path,
    work: Path,
    trace_out: Path | None,
) -> int:
    """Measure once and write the record to ``out`` (errors included)."""
    record = {"workload": name, "seed": seed, "traced": traced, "smoke": smoke}
    probes = [probe()]
    try:
        record.update(_measure(name, seed, traced, smoke, work, trace_out, probes))
        record["error"] = None
    except Exception:
        record["error"] = traceback.format_exc()
    out.write_text(json.dumps(record))
    return 0
