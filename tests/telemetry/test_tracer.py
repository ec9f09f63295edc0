"""Tracer primitives: spans, nesting, counters, histograms, lifecycle."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    Stats,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.telemetry import tracer as tracer_module

pytestmark = pytest.mark.telemetry


class FakeClock:
    """Deterministic monotonic clock advancing by explicit ticks."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def tracer(clock):
    return Tracer(clock=clock)


class TestSpans:
    def test_span_records_duration(self, tracer, clock):
        with tracer.span("work"):
            clock.advance(0.25)
        (record,) = tracer.records
        assert record.name == "work"
        assert record.duration == pytest.approx(0.25)
        assert record.parent is None
        assert record.depth == 0

    def test_nesting_parent_and_depth(self, tracer, clock):
        with tracer.span("outer"):
            clock.advance(0.1)
            with tracer.span("inner"):
                clock.advance(0.2)
        inner, outer = tracer.records  # inner finishes first
        assert inner.name == "inner"
        assert inner.parent == "outer"
        assert inner.depth == 1
        assert outer.parent is None
        assert outer.duration == pytest.approx(0.3)

    def test_exception_still_records_and_unwinds(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                clock.advance(1.0)
                raise RuntimeError("failure inside the span")
        (record,) = tracer.records
        assert record.duration == pytest.approx(1.0)
        # The tracer remains usable after the exception, and the failed
        # span is no longer open: the next one is top-level.
        with tracer.span("after"):
            pass
        assert tracer.records[-1].depth == 0
        assert tracer.records[-1].parent is None

    def test_per_name_aggregates(self, tracer, clock):
        for duration in (0.1, 0.3, 0.2):
            with tracer.span("step"):
                clock.advance(duration)
        stats = tracer.span_stats["step"]
        assert stats.count == 3
        assert stats.total == pytest.approx(0.6)
        assert stats.min == pytest.approx(0.1)
        assert stats.max == pytest.approx(0.3)
        assert stats.mean == pytest.approx(0.2)

    def test_record_cap_keeps_aggregates_exact(self, clock, monkeypatch):
        monkeypatch.setattr(tracer_module, "MAX_RECORDS", 2)
        tracer = Tracer(clock=clock)
        for _ in range(5):
            with tracer.span("s"):
                clock.advance(0.1)
        assert len(tracer.records) == 2
        assert tracer.dropped == 3
        assert tracer.span_stats["s"].count == 5

    def test_top_spans_sorted_slowest_first(self, tracer, clock):
        for name, duration in (("a", 0.2), ("b", 0.5), ("c", 0.1)):
            with tracer.span(name):
                clock.advance(duration)
        top = tracer.top_spans(2)
        assert [record.name for record in top] == ["b", "a"]


class TestCountersAndHistograms:
    def test_counter_arithmetic(self, tracer):
        tracer.count("events")
        tracer.count("events", 4)
        tracer.count("bytes", 2.5)
        assert tracer.counters == {"events": 5, "bytes": 2.5}

    def test_histogram_moments(self, tracer):
        for value in (1.0, 2.0, 3.0, 4.0):
            tracer.observe("gamma", value)
        histogram = tracer.histograms["gamma"]
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1.0
        assert histogram.max == 4.0

    def test_negative_series_keeps_its_max(self, tracer):
        for value in (-3.0, -1.5, -2.0):
            tracer.observe("cosine", value)
        assert tracer.histograms["cosine"].to_dict() == {
            "count": 3, "total": -6.5, "min": -3.0, "max": -1.5,
            "mean": pytest.approx(-6.5 / 3),
        }

    def test_spans_and_histograms_share_one_stats_class(self, tracer, clock):
        with tracer.span("phase"):
            clock.advance(0.25)
        tracer.observe("h", 0.25)
        spans, values = tracer.span_stats["phase"], tracer.histograms["h"]
        assert type(spans) is type(values) is Stats
        assert spans.to_dict() == values.to_dict()
        assert Stats().to_dict() == {
            "count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
        }

    def test_summary_is_json_able(self, tracer, clock):
        with tracer.span("phase"):
            clock.advance(0.1)
        tracer.count("n", 2)
        tracer.observe("h", 0.5)
        summary = tracer.summary()
        assert summary["spans"]["phase"]["count"] == 1
        assert summary["counters"] == {"n": 2}
        assert summary["histograms"]["h"]["mean"] == 0.5
        assert summary["records"] == 1
        assert summary["dropped"] == 0


class TestGlobalSwitch:
    def test_default_is_null_tracer(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_null_tracer_is_total_noop(self):
        null = NullTracer()
        with null.span("anything"):
            pass
        null.count("c", 3)
        null.observe("h", 1.0)
        assert null.emit("eval", accuracy=1.0) is None
        assert null.span("a") is null.span("b")  # one shared no-op span

    def test_enable_disable_roundtrip(self):
        tracer = set_tracer(Tracer())
        try:
            assert get_tracer() is tracer
            assert tracer.enabled
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_tracing_context_restores_previous(self):
        outer = Tracer()
        set_tracer(outer)
        try:
            with telemetry.tracing() as inner:
                assert get_tracer() is inner
                assert inner is not outer
            assert get_tracer() is outer
        finally:
            set_tracer(None)

    def test_tracing_restores_on_exception(self):
        with pytest.raises(ValueError):
            with telemetry.tracing():
                raise ValueError("escape")
        assert get_tracer() is NULL_TRACER
