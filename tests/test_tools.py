"""Tests for the repo tooling (docs generator, bench gate checker, run fingerprint)."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_gen_api_doc():
    return load_tool("gen_api_doc")


class TestGenApiDoc:
    def test_regenerates_consistently(self):
        tool = load_gen_api_doc()
        before = (REPO / "docs" / "api.md").read_text()
        tool.main()
        after = (REPO / "docs" / "api.md").read_text()
        assert after == before  # committed doc is in sync with the code

    def test_covers_all_public_modules(self):
        tool = load_gen_api_doc()
        text = (REPO / "docs" / "api.md").read_text()
        for module in tool.MODULES:
            assert f"`{module}`" in text

    def test_every_row_has_summary(self):
        text = (REPO / "docs" / "api.md").read_text()
        rows = [
            line for line in text.split("\n")
            if line.startswith("| `") and line.count("|") == 4
        ]
        assert len(rows) > 100  # the API is broad
        for row in rows:
            summary = row.rsplit("|", 2)[-2].strip()
            assert summary and summary != "(no docstring)", row


class TestCheckBench:
    """Tier-1 smoke: the committed BENCH files pass their own gates."""

    def test_committed_baselines_pass(self, capsys):
        tool = load_tool("check_bench")
        assert tool.main([]) == 0
        assert "bench gates OK" in capsys.readouterr().out

    def test_gated_files_exist_and_have_entries(self):
        tool = load_tool("check_bench")
        for stem, entries in tool.GATES.items():
            path = REPO / f"BENCH_{stem}.json"
            assert path.exists(), f"missing committed {path.name}"
            recorded = json.loads(path.read_text())["entries"]
            for entry in entries:
                assert entry in recorded, f"{path.name} lacks {entry!r}"

    def test_regression_fails(self, tmp_path, capsys):
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        document = json.loads((REPO / "BENCH_monitor.json").read_text())
        # >20% throughput drop on a higher-better key must trip the gate.
        entry = document["entries"]["jsonl_sink_throughput"]
        entry["events_per_sec"] = entry["events_per_sec"] * 0.5
        (fresh / "BENCH_monitor.json").write_text(json.dumps(document))
        assert tool.main(["--fresh", str(fresh)]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert "jsonl_sink_throughput" in captured.err

    def test_threshold_breach_fails(self, tmp_path, capsys):
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        document = json.loads((REPO / "BENCH_monitor.json").read_text())
        entry = document["entries"]["null_monitor_overhead"]
        entry["disabled_overhead"] = entry["threshold"] * 2
        (fresh / "BENCH_monitor.json").write_text(json.dumps(document))
        assert tool.main(["--fresh", str(fresh)]) == 1
        assert "exceeds the committed threshold" in capsys.readouterr().err

    def test_small_drop_within_tolerance_passes(self, tmp_path):
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        document = json.loads((REPO / "BENCH_monitor.json").read_text())
        entry = document["entries"]["jsonl_sink_throughput"]
        entry["events_per_sec"] = entry["events_per_sec"] * 0.9
        (fresh / "BENCH_monitor.json").write_text(json.dumps(document))
        assert tool.main(["--fresh", str(fresh)]) == 0

    def test_missing_entries_skip_not_fail(self, tmp_path, capsys):
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "BENCH_monitor.json").write_text(
            json.dumps({"bench": "monitor", "entries": {}})
        )
        assert tool.main(["--fresh", str(fresh)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out


class TestFingerprint:
    """``tools/fingerprint.py`` makes "bit-exact" a diff that can fail."""

    RUNS = ["sync/HierAdMo/batched", "sync/FedAvg/loop"]

    def test_matrix_covers_goldens_and_workloads(self):
        tool = load_tool("fingerprint")
        kinds = [name.split("/")[0] for name in tool.MATRIX]
        # 15 sync and 3 CNN goldens on two backends; 4 workloads x 2 seeds.
        assert (kinds.count("sync"), kinds.count("cnn"), kinds.count("e2e")) == (
            30, 6, 8,
        )

    def test_identical_runs_give_empty_diff(self, tmp_path, capsys):
        tool = load_tool("fingerprint")
        a = tool.fingerprint(self.RUNS)
        b = tool.fingerprint(self.RUNS)
        assert tool.diff(a, b) == []
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, document in zip(paths, (a, b)):
            path.write_text(json.dumps(document))
        assert tool.main(["--diff", *map(str, paths)]) == 0
        assert "no field moved in 2 runs" in capsys.readouterr().out

    def test_one_ulp_nudge_is_reported_for_that_run_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.core import Federation

        tool = load_tool("fingerprint")
        a = tool.fingerprint(self.RUNS)
        clean = tool.fingerprint(self.RUNS[:1])
        original = Federation.gradient_all
        calls = []

        def nudged(fed, params, *, rows=slice(None), out):
            losses = original(fed, params, rows=rows, out=out)
            if not calls:  # one ulp, once, on worker 0's gradient row
                out[0] = np.nextafter(out[0], np.inf)
            calls.append(1)
            return losses

        monkeypatch.setattr(Federation, "gradient_all", nudged)
        touched = tool.fingerprint(self.RUNS[1:])
        b = {**clean, "runs": {**clean["runs"], **touched["runs"]}}

        moved = tool.diff(a, b)
        assert {run for run, _, _ in moved} == {self.RUNS[1]}
        fields = {field: text for _, field, text in moved}
        assert fields["arrays.x"] == "sha256 changed"
        assert fields["history.train_loss"].startswith("max rel change ")

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, document in zip(paths, (a, b)):
            path.write_text(json.dumps(document))
        assert tool.main(["--diff", *map(str, paths)]) == 1
        out = capsys.readouterr().out
        assert f"moved: {self.RUNS[1]}" in out
        assert self.RUNS[0] not in out
        assert "1 of 2 runs moved" in out
