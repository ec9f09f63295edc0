"""Tests for history JSON serialization."""

import numpy as np
import pytest

from repro.metrics import (
    TrainingHistory,
    history_from_dict,
    history_to_dict,
    load_history,
    save_history,
)


@pytest.fixture()
def history():
    h = TrainingHistory("HierAdMo", config={"eta": 0.01, "tau": 10})
    h.record_eval(0, 0.1, 2.3, 2.3)
    h.record_eval(10, 0.8, 0.5, 0.6)
    h.record_gammas({0: 0.5, 1: 0.25})
    h.comm.configure(dim=10, payload_multiplier=2.0)
    h.comm.record_worker_edge(12, rounds=3)
    h.comm.record_edge_cloud(2, rounds=1)
    return h


class TestRoundtrip:
    def test_dict_roundtrip(self, history):
        restored = history_from_dict(history_to_dict(history))
        assert restored.algorithm == history.algorithm
        assert restored.config == history.config
        assert restored.test_accuracy == history.test_accuracy
        assert restored.gamma_trace == history.gamma_trace
        assert restored.comm.to_dict() == history.comm.to_dict()
        assert restored.comm.worker_edge_rounds == 3
        assert restored.comm.edge_cloud_rounds == 1

    def test_ledger_is_the_only_round_record(self, history):
        payload = history_to_dict(history)
        assert "worker_edge_rounds" not in payload
        assert "edge_cloud_rounds" not in payload
        assert payload["comm"]["worker_edge_rounds"] == 3

    def test_payload_without_ledger_refused(self, history):
        payload = history_to_dict(history)
        del payload["comm"]
        payload["worker_edge_rounds"] = 3
        with pytest.raises(ValueError, match="'comm'"):
            history_from_dict(payload)

    def test_file_roundtrip(self, history, tmp_path):
        path = tmp_path / "run.json"
        save_history(history, path)
        restored = load_history(path)
        assert restored.final_accuracy == history.final_accuracy
        assert restored.iterations == history.iterations

    def test_dict_is_json_clean(self, history):
        import json

        payload = history_to_dict(history)
        json.dumps(payload)  # must not raise

    def test_eval_times_roundtrip(self, history):
        history.eval_times = [0.0, 12.5]
        restored = history_from_dict(history_to_dict(history))
        assert restored.eval_times == [0.0, 12.5]
        # The restored time axis must stay usable by time_to_accuracy.
        assert restored.time_to_accuracy(0.5) == 12.5

    def test_eval_times_default_empty(self, history):
        payload = history_to_dict(history)
        assert payload["eval_times"] == []
        # Payloads written before eval_times existed still load.
        payload.pop("eval_times")
        restored = history_from_dict(payload)
        assert restored.eval_times == []

    def test_alerts_and_aborted_by_roundtrip(self, history):
        history.alerts = [
            {"monitor": "plateau", "severity": "warning", "message": "m"}
        ]
        history.aborted_by = "divergence"
        restored = history_from_dict(history_to_dict(history))
        assert restored.alerts == history.alerts
        assert restored.aborted_by == "divergence"

    def test_numpy_values_coerced(self):
        h = TrainingHistory("x")
        h.record_eval(np.int64(5), np.float64(0.5), 0.1, 0.1)
        payload = history_to_dict(h)
        import json

        json.dumps(payload)
        restored = history_from_dict(payload)
        assert restored.iterations == [5]


class TestAtomicWrites:
    def test_save_history_leaves_no_temp_files(self, history, tmp_path):
        save_history(history, tmp_path / "run.json")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


class TestTraceTruncation:
    """A crash mid-append truncates the final JSONL record; the
    complete prefix must still load.  Corruption anywhere *else* is a
    real integrity problem and must keep raising."""

    def write_trace(self, path):
        from repro.metrics import save_trace_jsonl
        from repro.telemetry import Tracer

        tracer = Tracer()
        with tracer.span("phase"):
            tracer.count("hits", 3)
        tracer.observe("latency", 1.5)
        save_trace_jsonl(tracer, path)
        return path

    def test_truncated_final_line_tolerated(self, tmp_path):
        from repro.metrics import load_trace_jsonl

        path = self.write_trace(tmp_path / "trace.jsonl")
        full = load_trace_jsonl(path)
        text = path.read_text()
        # Chop mid-way through the last record, as a dying process would.
        lines = text.splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines))
        partial = load_trace_jsonl(path)
        assert partial["counters"] == full["counters"]
        assert len(partial["spans"]) == len(full["spans"])
        # The damaged record (here the histogram) is simply absent.
        assert partial["histograms"] == {}

    def test_mid_file_corruption_still_raises(self, tmp_path):
        import json as json_module

        from repro.metrics import load_trace_jsonl

        path = self.write_trace(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:5]
        path.write_text("\n".join(lines))
        with pytest.raises(json_module.JSONDecodeError):
            load_trace_jsonl(path)

    def test_trailing_blank_lines_ignored(self, tmp_path):
        from repro.metrics import load_trace_jsonl

        path = self.write_trace(tmp_path / "trace.jsonl")
        full = load_trace_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        again = load_trace_jsonl(path)
        assert again["counters"] == full["counters"]
        assert again["histograms"] == full["histograms"]
