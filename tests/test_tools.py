"""Tests for the repo tooling (docs generator, bench gate checker, run fingerprint)."""

import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np

import repro

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
        """The committed doc is what the code renders (compared, never
        written: run ``python tools/gen_api_doc.py`` to refresh it)."""
        tool = load_gen_api_doc()
        committed = (REPO / "docs" / "api.md").read_text(encoding="utf-8")
        assert tool.render() == committed

    def test_covers_all_public_modules(self):
        """Every subpackage of ``repro`` is in ``MODULES``, and every
        module there has its section in the committed doc."""
        tool = load_gen_api_doc()
        packages = {
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        }
        missing = packages - set(tool.MODULES)
        assert not missing, sorted(missing)
        text = (REPO / "docs" / "api.md").read_text()
        for module in tool.MODULES:
            assert f"## `{module}`" in text

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
        entry["events_per_probe"] = entry["events_per_probe"] * 0.5
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

    def test_per_key_thresholds(self, tmp_path, capsys):
        """An entry gating two keys bounds each by its own threshold:
        one more rebind call per arrival, or per rebind, fails."""
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        committed = json.loads((REPO / "BENCH_population.json").read_text())
        for key in ("calls_per_arrival", "fixed_calls"):
            document = json.loads(json.dumps(committed))
            entry = document["entries"]["rebind_calls"]
            entry[key] = entry["threshold"][key] + 1
            (fresh / "BENCH_population.json").write_text(json.dumps(document))
            assert tool.main(["--fresh", str(fresh)]) == 1
            err = capsys.readouterr().err
            assert f"population/rebind_calls.{key}" in err
            assert err.count("REGRESSION") == 1

    def test_small_drop_within_tolerance_passes(self, tmp_path):
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        document = json.loads((REPO / "BENCH_monitor.json").read_text())
        entry = document["entries"]["jsonl_sink_throughput"]
        entry["events_per_probe"] = entry["events_per_probe"] * 0.9
        (fresh / "BENCH_monitor.json").write_text(json.dumps(document))
        assert tool.main(["--fresh", str(fresh)]) == 0

    UNJUDGED_BY_SELF_CHECK = [
        "batched/batched_cnn.speedup",
        "batched/gradient_pass_16worker_mlp.speedup",
        "eventsim/engine_event_throughput.events_per_probe",
        "monitor/jsonl_sink_throughput.events_per_probe",
    ]

    def test_self_check_names_the_keys_it_cannot_judge(self, capsys):
        tool = load_tool("check_bench")
        assert tool.main([]) == 0
        unjudged = [
            line.removeprefix("note: ").split(":")[0]
            for line in capsys.readouterr().out.splitlines()
            if "not judged" in line and "needs --fresh" in line
        ]
        assert sorted(unjudged) == self.UNJUDGED_BY_SELF_CHECK

    def test_fresh_directory_judges_those_keys(self, tmp_path, capsys):
        tool = load_tool("check_bench")
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for path in REPO.glob("BENCH_*.json"):
            (fresh / path.name).write_text(path.read_text())
        assert tool.main(["--fresh", str(fresh)]) == 0
        assert "not judged" not in capsys.readouterr().out
        for name in self.UNJUDGED_BY_SELF_CHECK:
            stem_entry, key = name.split(".")
            stem, entry = stem_entry.split("/")
            path = fresh / f"BENCH_{stem}.json"
            document = json.loads(path.read_text())
            document["entries"][entry][key] *= 0.5
            path.write_text(json.dumps(document))
        assert tool.main(["--fresh", str(fresh)]) == 1
        regressions = capsys.readouterr().err.splitlines()
        assert sorted(
            line.removeprefix("REGRESSION: ").split(":")[0]
            for line in regressions
        ) == self.UNJUDGED_BY_SELF_CHECK

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

    RUNS = ["sync/HierAdMo/batched", "sync/FedAvg/batched"]

    def test_matrix_covers_goldens_and_workloads(self):
        tool = load_tool("fingerprint")
        kinds = [name.split("/")[0] for name in tool.MATRIX]
        counts = {kind: kinds.count(kind) for kind in kinds}
        # 15 sync and 3 CNN goldens; 4 workloads x 2 seeds;
        # 2 async algorithms x 2 quorums x clean/faults, plus the
        # diverging, resnet10, track-mu and eta-schedule event-clock
        # rows; 4 populations and the short-shards one;
        # both clocks with checkpoints and monitor, and crash-resumed,
        # and a crash-resumed sampled population;
        # the event simulator at 3 quorums; the Fig. 2(h)/(l) replay,
        # three-tier and flat, in 3 cases; the 3 CNN goldens and the
        # ResNet-10 federation on split passes.  Fault rows: the zero
        # plan per golden, then 5 single-kind plans x 3 policies on the
        # 6 three-tier goldens and 3 plans x 3 policies on the 9
        # two-tier ones.
        assert counts == {
            "sync": 15, "cnn": 3, "faults": 15 + 6 * 15 + 9 * 9, "e2e": 8,
            "async": 12, "population": 5, "lifecycle": 2, "resume": 3,
            "sim": 3, "replay": 2 * 3, "split": 4,
        }

    def test_population_resume_row_carries_through_the_checkpoint(self):
        """resume/population resumes from a checkpoint that carries
        clients, and carried clients return after the resume."""
        tool = load_tool("fingerprint")
        run = tool.fingerprint(["resume/population"])["runs"]["resume/population"]
        assert "error" not in run, run.get("error")
        assert run["population.returned"]
        assert run["checkpoints.driver"]

    def test_split_rows_equal_one_thread_rows(self, monkeypatch):
        """A split/cnn row runs 3 uneven row blocks per pass and digests
        to its one-thread cnn/ row, field for field; the ResNet row's
        batch norms fold across the blocks."""
        from repro.nn import supervised

        tool = load_tool("fingerprint")
        blocks = []
        real = supervised.SupervisedModel._blocks

        def counted(self, xs):
            blocks.append(real(self, xs))
            return blocks[-1]

        monkeypatch.setattr(supervised.SupervisedModel, "_blocks", counted)
        settings = (
            supervised.SPLIT_MACS, supervised.SPLIT_CALL_MACS,
            supervised.MAX_BLOCKS, supervised._cpus,
        )
        runs = tool.fingerprint(
            ["cnn/HierAdMo/batched", "split/cnn/HierAdMo", "split/resnet10/HierAdMo"]
        )["runs"]
        assert (
            supervised.SPLIT_MACS, supervised.SPLIT_CALL_MACS,
            supervised.MAX_BLOCKS, supervised._cpus,
        ) == settings
        assert all("error" not in run for run in runs.values())
        assert runs["split/cnn/HierAdMo"] == runs["cnn/HierAdMo/batched"]
        assert set(blocks) == {1, 3}
        assert any(field.startswith("buffers.") for field in runs["split/resnet10/HierAdMo"])

    def test_every_fault_plan_realizes_and_moves_its_row(self):
        """Each single-kind plan fires at least once and moves the
        history or the comm ledger away from the zero-plan row."""
        tool = load_tool("fingerprint")
        for name, plans in (
            ("HierFAVG", ["dropout", "outage", "loss", "duplication", "staleness"]),
            ("FedAvg", ["dropout", "loss", "duplication"]),
        ):
            runs = tool.fingerprint(
                [f"faults/{name}/zero/renormalize"]
                + [f"faults/{name}/{plan}/renormalize" for plan in plans]
            )["runs"]
            zero = runs.pop(f"faults/{name}/zero/renormalize")
            assert sorted(run.split("/")[2] for run in runs) == sorted(plans)
            for run, record in runs.items():
                assert "error" not in record, record.get("error")
                _, counter = tool.FAULT_PLANS[run.split("/")[2]]
                assert record["fault_summary"]["events"][counter] > 0, run
                moved = [
                    field for field in record
                    if field.startswith(("history.", "comm"))
                    and record[field] != zero[field]
                ]
                assert moved, run

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

    def test_checkpoint_schedule_moves_monitor_events_alone(
        self, tmp_path, capsys, monkeypatch
    ):
        """Saving every 6 iterations instead of every 5 changes no
        numerics; the diff reports the moved ``checkpoint_saved`` events
        and the saved driver states (their iterations moved)."""
        tool = load_tool("fingerprint")
        run = "lifecycle/lockstep"
        a = tool.fingerprint([run])
        monkeypatch.setattr(tool, "CHECKPOINT_EVERY", 6)
        b = tool.fingerprint([run])
        assert [(r, field) for r, field, _ in tool.diff(a, b)] == [
            (run, "checkpoints.driver"), (run, "monitor.events")
        ]
        saved = [
            [event[1] for event in doc["runs"][run]["monitor.events"]
             if event[0] == "checkpoint_saved"]
            for doc in (a, b)
        ]
        assert saved == [[5, 10, 15, 20], [6, 12, 18, 24]]

        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, document in zip(paths, (a, b)):
            path.write_text(json.dumps(document))
        assert tool.main(["--diff", *map(str, paths)]) == 1
        out = capsys.readouterr().out
        assert f"moved: {run}" in out
        assert "monitor.events: changed" in out
        assert "1 of 1 runs moved (2 fields)" in out
