"""Tracing and monitoring together: one slot, one clock, one stream.

Replays the benchmark harness's usage (``benchmarks/e2e/child.py``) on
a small event-clock run: a recording tracer scope around a JSONL
monitoring scope whose sink's ``emit`` is replaced on the instance.
Spans must land on the tracer, every event must pass the replaced
``emit`` once and appear once in the file, each scope must restore the
slot it found, and events must read the tracer's clock.
"""

import pytest

from repro import telemetry
from repro.algorithms import AsyncHierAdMo
from repro.monitoring import JSONLStreamSink, load_events_jsonl, monitoring
from repro.telemetry import NULL_TRACER, Tracer, get_tracer

pytestmark = pytest.mark.monitoring

ALGO_KW = dict(eta=0.02, gamma=0.4, tau=2, pi=3)
ITERATIONS, EVAL_EVERY = 12, 4


def counted_sink(path):
    """A JSONL sink whose ``emit`` is wrapped on the instance."""
    sink = JSONLStreamSink(path)
    seen = []
    emit = sink.emit

    def counted(event):
        seen.append(event)
        return emit(event)

    sink.emit = counted
    return sink, seen


def assert_stream(path, seen, history):
    assert [event.seq for event in seen] == list(range(len(seen)))
    # Compared as JSON lines: the iteration-0 eval's NaN train loss.
    assert [event.to_json() for event in load_events_jsonl(path)] == [
        event.to_json() for event in seen
    ]
    kinds = [event.kind for event in seen]
    assert kinds[0] == "run_start" and kinds[-1] == "run_end"
    assert kinds.count("eval") == len(history.iterations)
    assert kinds.count("edge_round") > 0 and kinds.count("cloud_round") > 0


def assert_spans(tracer):
    for name in ("worker_step", "edge_agg", "cloud_agg", "eval"):
        assert tracer.span_stats[name].count > 0, name


class TestTracingOutsideMonitoring:
    """The harness's nesting: ``tracing`` wraps ``monitoring``."""

    def run(self, federation_factory, tmp_path, inside=None):
        tracer = Tracer()
        path = tmp_path / "events.jsonl"
        with telemetry.tracing(tracer):
            # Built inside the tracing scope, as the harness's resumed
            # run is, so the tracer's epoch precedes the hub's birth.
            algorithm = AsyncHierAdMo(federation_factory(), **ALGO_KW)
            sink, seen = counted_sink(path)
            with monitoring(sinks=[sink]) as hub:
                if inside is not None:
                    inside(tracer, hub)
                with tracer.span("run"):
                    history = algorithm.run(ITERATIONS, eval_every=EVAL_EVERY)
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER
        return tracer, path, seen, history

    def test_spans_and_events_each_land_once(
        self, federation_factory, tmp_path
    ):
        def inside(tracer, hub):
            assert get_tracer() is tracer
            assert tracer.hub is hub and tracer.monitored

        tracer, path, seen, history = self.run(
            federation_factory, tmp_path, inside
        )
        assert tracer.hub is None and not tracer.monitored
        assert_spans(tracer)
        assert_stream(path, seen, history)
        assert history.trace_summary is not None

    def test_events_read_the_tracer_clock(self, federation_factory, tmp_path):
        tracer, _, seen, _ = self.run(federation_factory, tmp_path)
        evals = [event for event in seen if event.kind == "eval"]
        records = sorted(tracer.records, key=lambda record: record.start)
        spans = [record for record in records if record.name == "eval"]
        assert len(evals) == len(spans)
        for event, span in zip(evals, spans):
            end = span.start + span.duration
            # Emitted after its evaluation closed, on the same clock,
            # and before the next span opened.
            assert event.wall_time >= end
            later = [r.start for r in records if r.start >= end]
            if later:
                assert event.wall_time <= min(later)


class TestMonitoringOutsideTracing:
    """The reverse nesting: the open hub is carried onto the tracer."""

    def test_spans_and_events_each_land_once(
        self, federation_factory, tmp_path
    ):
        tracer = Tracer()
        path = tmp_path / "events.jsonl"
        algorithm = AsyncHierAdMo(federation_factory(), **ALGO_KW)
        sink, seen = counted_sink(path)
        with monitoring(sinks=[sink]) as hub:
            assert get_tracer() is hub and not hub.enabled
            with telemetry.tracing(tracer):
                assert get_tracer() is tracer and tracer.hub is hub
                history = algorithm.run(ITERATIONS, eval_every=EVAL_EVERY)
            assert get_tracer() is hub and tracer.hub is None
        assert get_tracer() is NULL_TRACER
        assert_spans(tracer)
        assert_stream(path, seen, history)
