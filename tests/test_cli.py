"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

FAST = [
    "--samples", "300", "--iterations", "8", "--tau", "2", "--pi", "2",
    "--model", "logistic",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "FedProx"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "HierAdMo" in out
        assert "Logistic/MNIST" in out

    def test_run(self, capsys):
        assert main(["run", "--algorithm", "HierAdMo"] + FAST) == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out

    def test_run_with_save(self, tmp_path, capsys):
        target = tmp_path / "history.json"
        code = main(
            ["run", "--algorithm", "FedAvg", "--save", str(target)] + FAST
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["algorithm"] == "FedAvg"

    def test_table2(self, capsys):
        assert main(["table2", "--combo", "Logistic/MNIST"] + FAST) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "FedAvg" in out

    def test_adaptive(self, capsys):
        assert main(["adaptive", "--gamma", "0.5"] + FAST) == 0
        out = capsys.readouterr().out
        assert "best fixed gamma_l" in out

    def test_timing(self, capsys):
        assert main(["timing", "--target", "0.05"] + FAST) == 0
        out = capsys.readouterr().out
        assert "HierAdMo" in out

    def test_trace(self, capsys):
        assert main(["trace", "--algorithm", "HierAdMo"] + FAST) == 0
        out = capsys.readouterr().out
        assert "per-phase wall clock" in out
        assert "communication ledger" in out
        assert "worker_step" in out
        assert "slowest spans" in out

    def test_trace_save_jsonl(self, tmp_path, capsys):
        from repro.metrics import load_trace_jsonl
        from repro.telemetry import get_tracer

        target = tmp_path / "trace.jsonl"
        code = main(
            ["trace", "--algorithm", "FedAvg", "--save-trace", str(target)]
            + FAST
        )
        assert code == 0
        loaded = load_trace_jsonl(target)
        names = {span.name for span in loaded["spans"]}
        assert "worker_step" in names
        assert "cloud_agg" in names
        # The CLI restores the null tracer after the traced run.
        assert not get_tracer().enabled


@pytest.mark.monitoring
class TestMonitorCommands:
    def run_monitored(self, tmp_path, capsys):
        stream = tmp_path / "run.jsonl"
        code = main(
            ["run", "--algorithm", "HierAdMo", "--monitor", str(stream)]
            + FAST
        )
        assert code == 0
        capsys.readouterr()  # drop the run output
        return stream

    def test_run_monitor_writes_stream(self, tmp_path, capsys):
        from repro.monitoring import load_events_jsonl
        from repro.telemetry import NULL_TRACER, get_tracer

        stream = self.run_monitored(tmp_path, capsys)
        events = load_events_jsonl(stream)
        kinds = [e.kind for e in events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert "eval" in kinds and "edge_round" in kinds
        # The CLI restores the null slot after the run.
        assert get_tracer() is NULL_TRACER

    def test_monitor_once_renders_dashboard(self, tmp_path, capsys):
        stream = self.run_monitored(tmp_path, capsys)
        assert main(["monitor", "--once", str(stream)]) == 0
        out = capsys.readouterr().out
        # Header, accuracy sparkline, byte rates, rounds and alert panel.
        assert "HierAdMo · finished · iter 8/8" in out
        assert "accuracy" in out and "latest" in out
        assert "worker→edge" in out
        assert "total" in out
        assert "rounds: edge" in out
        assert "alerts" in out

    def test_monitor_once_renders_every_accepted_width(
        self, tmp_path, capsys
    ):
        from repro.monitoring.dashboard import MIN_WIDTH

        stream = self.run_monitored(tmp_path, capsys)
        for width in (MIN_WIDTH, MIN_WIDTH + 1, 64):
            args = ["monitor", "--once", "--width", str(width), str(stream)]
            assert main(args) == 0
            out = capsys.readouterr().out
            assert "gamma per edge" in out
            assert max(len(line) for line in out.splitlines()) <= width
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", "--once", "--width", str(MIN_WIDTH - 1),
                  str(stream)])
        assert excinfo.value.code == 2
        assert f"must be >= {MIN_WIDTH}" in capsys.readouterr().err

    def test_monitor_once_missing_stream(self, tmp_path):
        with pytest.raises(SystemExit, match="no event stream"):
            main(["monitor", "--once", str(tmp_path / "absent.jsonl")])
