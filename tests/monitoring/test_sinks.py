"""Tests for event sinks and the JSONL stream loader."""

import json

import pytest

from repro.metrics import load_trace_jsonl, save_trace_jsonl
from repro.monitoring import (
    EVAL,
    EventSink,
    JSONLStreamSink,
    RingBufferSink,
    RunEvent,
    load_events_jsonl,
)
from repro.monitoring.sinks import RING_CAPACITY
from repro.telemetry import Tracer

pytestmark = pytest.mark.monitoring


def make_events(n):
    return [RunEvent(kind=EVAL, seq=i, iteration=i) for i in range(n)]


class TestRingBuffer:
    def test_keeps_last_capacity(self):
        sink = RingBufferSink()
        for event in make_events(RING_CAPACITY + 2):
            sink.emit(event)
        assert [e.seq for e in sink.snapshot()] == list(
            range(2, RING_CAPACITY + 2)
        )
        assert sink.emitted == RING_CAPACITY + 2
        assert sink.dropped == 2

    def test_no_drops_below_capacity(self):
        sink = RingBufferSink()
        for event in make_events(4):
            sink.emit(event)
        assert sink.dropped == 0
        assert len(sink.snapshot()) == 4


class TestJSONLStream:
    def test_roundtrip_through_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JSONLStreamSink(path)
        events = make_events(3)
        for event in events:
            sink.emit(event)
        # Line-buffered: complete records are on disk before close.
        assert load_events_jsonl(path) == events
        sink.close()

    def test_emit_after_close_raises(self, tmp_path):
        sink = JSONLStreamSink(tmp_path / "run.jsonl")
        sink.close()
        sink.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            sink.emit(make_events(1)[0])

    def test_partial_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = JSONLStreamSink(path)
        events = make_events(2)
        for event in events:
            sink.emit(event)
        sink.close()
        # Simulate a writer caught mid-emit by a concurrent reader.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind":"eval","se')
        assert load_events_jsonl(path) == events


def _run_stream(path):
    """run_start, eval, run_end as the hub streams them."""
    sink = JSONLStreamSink(path)
    for seq, kind in enumerate(("run_start", EVAL, "run_end")):
        sink.emit(RunEvent(kind=kind, seq=seq, data={"accuracy": 0.5}))
    sink.close()


def _trace_dump(path):
    """meta, span, counter as ``save_trace_jsonl`` writes them."""
    tracer = Tracer()
    with tracer.span("phase"):
        tracer.count("hits", 3)
    save_trace_jsonl(tracer, path)


def _event_kinds(path):
    return [event.kind for event in load_events_jsonl(path)]


def _trace_kinds(path):
    loaded = load_trace_jsonl(path)
    return (
        ["meta"] * bool(loaded["meta"])
        + ["span"] * len(loaded["spans"])
        + ["counter"] * len(loaded["counters"])
    )


READERS = {
    "events": (_run_stream, _event_kinds, ["run_start", EVAL, "run_end"]),
    "trace": (_trace_dump, _trace_kinds, ["meta", "span", "counter"]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
class TestOneReader:
    """Both readers forgive a partial *final* line (a live writer
    mid-emit) and nothing else: a line cut anywhere before the last is
    a damaged file and raises instead of vanishing from the result."""

    def cut(self, path, index):
        lines = path.read_text().splitlines()
        lines[index] = lines[index][: len(lines[index]) // 2]
        path.write_text("".join(line + "\n" for line in lines[:-1]) + lines[-1])

    def test_partial_final_line_skipped(self, tmp_path, reader):
        write, kinds, expected = READERS[reader]
        path = tmp_path / "stream.jsonl"
        write(path)
        self.cut(path, -1)
        assert kinds(path) == expected[:-1]

    def test_cut_middle_line_raises(self, tmp_path, reader):
        write, kinds, _ = READERS[reader]
        path = tmp_path / "stream.jsonl"
        write(path)
        self.cut(path, 1)
        with pytest.raises(json.JSONDecodeError):
            kinds(path)


class TestBase:
    def test_emit_abstract(self):
        with pytest.raises(NotImplementedError):
            EventSink().emit(make_events(1)[0])

    def test_close_noop(self):
        EventSink().close()  # must not raise
