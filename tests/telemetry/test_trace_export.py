"""JSONL trace export round-trip and the trace report rendering."""

from __future__ import annotations

import json

import pytest

from repro.metrics import load_trace_jsonl, save_trace_jsonl
from repro.metrics.history import TrainingHistory
from repro.monitoring import load_events_jsonl
from repro.telemetry import (
    Tracer,
    format_bytes,
    format_fault_summary,
    format_trace_report,
)
from repro.telemetry import tracer as tracer_module

pytestmark = pytest.mark.telemetry


def _traced_tracer() -> Tracer:
    clock = iter(float(i) for i in range(100))
    tracer = Tracer(clock=lambda: next(clock))
    with tracer.span("worker_step"):
        with tracer.span("oracle.forward"):
            pass
    with tracer.span("eval"):
        pass
    tracer.count("comm.worker_edge.transfers", 8)
    tracer.observe("adaptive.gamma", 0.4)
    tracer.observe("adaptive.gamma", 0.6)
    return tracer


class TestJsonlRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        tracer = _traced_tracer()
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(tracer, path)

        loaded = load_trace_jsonl(path)
        assert loaded["meta"]["records"] == len(tracer.records)
        assert len(loaded["spans"]) == len(tracer.records)
        by_name = {span.name: span for span in loaded["spans"]}
        original = {record.name: record for record in tracer.records}
        for name, span in by_name.items():
            assert span.start == original[name].start
            assert span.duration == original[name].duration
            assert span.parent == original[name].parent
            assert span.depth == original[name].depth
        assert loaded["counters"] == tracer.counters
        assert loaded["histograms"]["adaptive.gamma"]["count"] == 2
        assert loaded["histograms"]["adaptive.gamma"]["mean"] == (
            pytest.approx(0.5)
        )

    def test_lines_are_self_describing_json(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        save_trace_jsonl(_traced_tracer(), path)
        lines = path.read_text().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "meta"
        assert {entry["kind"] for entry in parsed} == {
            "meta", "span", "counter", "histogram",
        }
        # Run-event envelopes in file order: the event reader reads them.
        assert [entry["seq"] for entry in parsed] == list(range(len(lines)))
        events = load_events_jsonl(path)
        assert [event.kind for event in events] == [
            entry["kind"] for entry in parsed
        ]

    def test_empty_tracer_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_trace_jsonl(Tracer(), path)
        loaded = load_trace_jsonl(path)
        assert loaded["spans"] == []
        assert loaded["counters"] == {}
        assert loaded["histograms"] == {}


class TestReportRendering:
    def test_report_contains_all_sections(self):
        tracer = _traced_tracer()
        history = TrainingHistory(algorithm="HierAdMo", config={})
        history.comm.configure(dim=100, payload_multiplier=2.0)
        history.comm.record_worker_edge(8)
        history.comm.record_edge_cloud(4)
        history.record_eval(0, 0.5, 1.0, float("nan"))

        text = format_trace_report(tracer, history, top=3)
        assert "== per-phase wall clock ==" in text
        assert "== communication ledger ==" in text
        assert "== top 3 slowest spans ==" in text
        assert "== counters ==" in text
        assert "worker_step" in text
        # Exact byte totals are printed (acceptance criterion).
        assert str(int(8 * 100 * 8 * 2.0)) in text
        assert str(int(4 * 100 * 8 * 2.0)) in text

    def test_report_without_history(self):
        text = format_trace_report(_traced_tracer())
        assert "communication ledger" not in text
        assert "per-phase wall clock" in text

    def test_report_surfaces_dropped_records(self, monkeypatch):
        monkeypatch.setattr(tracer_module, "MAX_RECORDS", 2)
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        text = format_trace_report(tracer)
        # Both the cap notice and the counter itself are printed.
        assert "3 records dropped" in text
        assert "telemetry.dropped = 3" in text

    def test_report_prints_stale_upload_tally(self):
        history = TrainingHistory(algorithm="AsyncHierAdMo", config={})
        history.fault_summary = {
            "rounds": {"total": 6},
            "events": {},
            "stale_uploads": {
                "uploads": 14,
                "cloud_rounds": 6,
                "rounds_with_stale": 5,
                "workers": [0, 1, 3],
            },
        }
        text = format_trace_report(_traced_tracer(), history)
        assert (
            "stale uploads: 14 (from 3 workers) across 5 of 6 cloud rounds"
            in text
        )

    def test_trace_and_faults_share_one_fault_renderer(self):
        history = TrainingHistory(algorithm="HierAdMo", config={})
        history.fault_summary = {
            "rounds": {"pristine": 3, "degraded": 2, "skipped": 1,
                       "total": 6},
            "events": {"fault.worker_drop": 4, "fault.msg_loss": 0},
        }
        block = format_fault_summary(history.fault_summary)
        assert block.splitlines()[0] == (
            "rounds: 5/6 survived (3 pristine, 2 degraded, 1 skipped)"
        )
        assert "fault.worker_drop" in block
        assert "fault.msg_loss" not in block  # not realized
        text = format_trace_report(_traced_tracer(), history)
        assert "== fault injection ==\n" + block + "\n" in text

    def test_format_bytes_units(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert format_bytes(5 * 1024**2) == "5.00 MiB"
        assert format_bytes(3 * 1024**3) == "3.00 GiB"
