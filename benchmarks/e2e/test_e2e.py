"""Tests of the end-to-end benchmark: smoke runs, failing checks, compare.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q`` from the
checkout root (under a minute on one core).
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import checks, cli
from benchmarks.e2e.stats import compare_rows, paired_verdict, summarize, verdict
from benchmarks.e2e.tracing import PER_LAYER, span_table
from benchmarks.e2e.workloads import WORKLOADS

SPEC = json.loads((cli.ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cli.ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize(
    "command, kind",
    [("run", "end_to_end"), ("trace", "per_layer")],
)
def test_smoke_run_reports_every_metric_and_passes_checks(command, kind):
    code, lines = _run_cli(command, "--smoke")
    last = json.loads(lines[-1])
    assert code == 0, lines[-40:]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] > 0
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]
    }
    assert {name: entry["unit"] for name, entry in last["metrics"].items()} == expected
    assert all(isinstance(e["value"], (int, float)) for e in last["metrics"].values())
    result_files = [line.split("result: ")[1] for line in lines if "result: " in line]
    assert len(result_files) == len(WORKLOADS)
    for path in result_files:
        result = json.loads(open(path).read())
        assert result["correct"] and not result["failures"]
        if kind == "end_to_end":
            reported = {m["name"] for m in SPEC[kind]} | {c[0] for c in cli.CONVERGENCE}
            assert set(result["metrics"]) == reported
        assert {"nproc", "threads", "python", "numpy", "calib.gemm_gflops"} <= set(
            result["machine"]
        )
        assert set(result["machine"]["threads"].values()) == {"1"}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(cli.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        PER_LAYER
    )


@pytest.fixture
def scratch_dir(request):
    """A scratch directory inside the checkout, removed afterwards."""
    path = cli.OUTPUT / "test" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_run_without_library_sources_fails_without_a_result(scratch_dir):
    """Only BENCHMARK.json and the benchmark files: exit non-zero, print nothing."""
    shutil.copy(cli.ROOT / "BENCHMARK.json", scratch_dir)
    shutil.copytree(
        cli.ROOT / "benchmarks" / "e2e", scratch_dir / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, *SPEC["command"], "--workload", "cnn_hieradmo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch_dir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ----------------------------------------------------------------------
# The checks can fail
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def record():
    """One real traced smoke process of the event-driven workload."""
    child = cli.spawn_child("async_stragglers", 1, True, True, None)
    assert not child.get("error"), child.get("error")
    return child


@pytest.fixture(scope="module")
def fault_free_record():
    """One real untraced smoke process of a workload without faults."""
    child = cli.spawn_child("cnn_hieradmo", 1, False, True, None)
    assert not child.get("error"), child.get("error")
    return child


def _failures(child, workload="async_stragglers", **overrides):
    plan = WORKLOADS[workload].smoke
    options = dict(
        floor=None,
        expected_resume_from=plan.resume_from,
        expected_transfers=WORKLOADS[workload].expected_transfers(plan),
        reference=None,
        baseline=None,
    )
    options.update(overrides)
    return checks.check_child(child, **options)


def test_clean_record_passes(record):
    assert _failures(record) == []
    assert _failures(record, baseline=record["history"]) == []


def test_nan_loss_fails(record):
    bad = copy.deepcopy(record)
    bad["history"]["train_loss"][-1] = float("nan")
    assert any("train loss" in f for f in _failures(bad))
    bad = copy.deepcopy(record)
    bad["resumed_history"]["train_loss"][-1] = None
    assert _failures(bad)


def test_divergence_fails(record):
    bad = copy.deepcopy(record)
    bad["history"]["diverged"], bad["history"]["diverged_at"] = True, 7
    assert any("diverged" in f for f in _failures(bad))


def test_ledger_off_by_one_transfer_fails(fault_free_record):
    """A ledger that bills one transfer too many or too few, as a
    miscounting algorithm would: events and derived bytes move together."""
    assert _failures(fault_free_record, "cnn_hieradmo") == []
    ledger = fault_free_record["ledger"]
    vector = ledger["dim"] * 8 * ledger["payload_multiplier"]
    for comm in ("comm", "resumed_comm"):
        for tier in ("worker_edge", "edge_cloud"):
            for step in (1, -1):
                bad = copy.deepcopy(fault_free_record)
                bad["ledger"][comm][f"{tier}_events"] += step
                bad["ledger"][comm][f"{tier}_bytes"] += step * vector
                found = _failures(bad, "cnn_hieradmo")
                assert any(f"{tier} transfers" in f for f in found), (comm, tier, step)


def test_ledger_bytes_at_the_wrong_payload_fail(record):
    bad = copy.deepcopy(record)
    bad["ledger"]["payload_multiplier"] *= 2
    assert any("bytes" in f for f in _failures(bad))


def test_resumed_history_differing_in_one_value_fails(record):
    bad = copy.deepcopy(record)
    loss = bad["resumed_history"]["test_loss"][-1]
    bad["resumed_history"]["test_loss"][-1] = math.nextafter(loss, math.inf)
    assert any("resumed history" in f for f in _failures(bad))
    bad = copy.deepcopy(record)
    bad["resumed_history"]["eval_times"][-1] += 1.0
    assert _failures(bad)


def test_dropped_trace_record_fails(record):
    bad = copy.deepcopy(record)
    bad["trace"]["records"] -= 1
    assert any("span records" in f for f in _failures(bad))
    bad = copy.deepcopy(record)
    bad["trace"]["dropped"] = 1
    assert _failures(bad)


def test_process_differing_from_the_first_fails(record):
    other = copy.deepcopy(record["history"])
    other["test_accuracy"][1] += 1e-9
    assert any("deterministic" in f for f in _failures(record, baseline=other))


def test_reference_and_floor_checks_fail(record):
    history = record["history"]
    reference = {"final_test_loss": history["test_loss"][-1], "eval_times": history["eval_times"]}
    assert _failures(record, reference=reference, floor=0.0) == []
    off = dict(reference, final_test_loss=reference["final_test_loss"] * (1 + 1e-5))
    assert any("reference" in f for f in _failures(record, reference=off))
    moved = dict(reference, eval_times=[t + 1.0 for t in reference["eval_times"]])
    assert any("eval_times" in f for f in _failures(record, reference=moved))
    assert any("floor" in f for f in _failures(record, floor=1.01))


def test_wrong_resume_point_fails(record):
    assert any("resumed from" in f for f in _failures(record, expected_resume_from=0))


def test_failed_iteration_count(record):
    attempted = 123
    assert checks.failed_iterations(attempted, _failures(record)) == 0
    bad = copy.deepcopy(record)
    bad["history"]["aborted_by"] = "divergence"
    assert checks.failed_iterations(attempted, _failures(bad)) == attempted
    crashed = {"error": "Traceback ...\nRuntimeError: boom\n"}
    found = _failures(crashed)
    assert found == ["process failed: RuntimeError: boom"]
    assert checks.failed_iterations(attempted, found) == attempted


def test_timings_scale_with_the_machine_probe():
    child = {
        "setup_s": 1.0, "iterations": 60, "run_s": 3.0, "peak_rss_mb": 100.0,
        "resume_s": 0.5, "probes": [cli.PROBE_REFERENCE_S] * 4,
    }
    assert cli.at_reference_speed(child) == {
        "setup_s": 1.0, "iters_per_s": 20.0, "peak_rss_mb": 100.0, "resume_s": 0.5,
    }
    # A machine running at half speed during the run only: the run's
    # timing is halved back, the other phases keep their bracketing mean.
    slow = dict(child, probes=[cli.PROBE_REFERENCE_S * f for f in (1, 2, 2, 1)])
    scaled = cli.at_reference_speed(slow)
    assert scaled["iters_per_s"] == pytest.approx(40.0)
    assert scaled["setup_s"] == pytest.approx(1.0 / 1.5)
    assert scaled["resume_s"] == pytest.approx(0.5 / 1.5)


# ----------------------------------------------------------------------
# Self time and percentiles
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    from repro.telemetry import SpanRecord

    records = [
        SpanRecord("run", 0.0, 10.0, None, 0),
        SpanRecord("a", 1.0, 4.0, "run", 1),
        SpanRecord("b", 2.0, 1.0, "a", 2),
        SpanRecord("a", 6.0, 2.0, "run", 1),
    ]
    table = span_table(records)
    assert table["run"]["self_s"] == pytest.approx(4.0)
    assert table["a"]["self_s"] == pytest.approx(5.0)
    assert table["a"]["calls"] == 2 and table["b"]["self_s"] == pytest.approx(1.0)
    assert table["a"]["p50_ms"] == pytest.approx(3000.0)
    assert table["a"]["p_hi_ms"] == 0.0
    many = [SpanRecord("x", float(i), float(i), None, 0) for i in range(1, 31)]
    assert span_table(many)["x"]["p_hi_ms"] == pytest.approx(20_000.0)


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def _result(workload, values, started, failed=0):
    return {
        "workload": workload,
        "seed": 100 + started // 2,
        "started_at": started,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in values.items()},
    }


def _synthetic(pairs=10):
    parent, change = [], []
    for i in range(pairs):
        jitter = 1 + 0.002 * (i % 3)
        # Seeds differ wildly in accuracy; the change costs every seed a
        # little, and reaches the target one eval later on one seed.
        accuracy = 0.8 + 0.015 * i
        reached = 24 + 6 * (i % 3)
        parent.append(_result("w", {
            "iters_per_s": 10.0 * jitter, "setup_s": 1.0 * jitter,
            "peak_rss_mb": 100.0 * jitter, "resume_s": 1.0 + 0.5 * (i % 2),
            "final_accuracy": accuracy, "iters_to_target": reached,
        }, 2 * i))
        change.append(_result("w", {
            "iters_per_s": 12.0 * jitter, "setup_s": 1.02 * jitter,
            "peak_rss_mb": 130.0 * jitter, "resume_s": 1.0 + 0.5 * ((i + 1) % 2),
            "final_accuracy": accuracy - 0.01,
            "iters_to_target": reached + 6 if i == 4 else (None if i == 9 else reached),
        }, 2 * i + 1, failed=5 if i == 0 else 0))
    return parent, change


def _compare_metrics():
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    for name, _, direction, tolerance in cli.CONVERGENCE:
        metrics[name] = {"better": direction, "tolerance": tolerance}
    return metrics


def test_compare_verdicts():
    parent, change = _synthetic()
    rows = {row["metric"]: row for row in compare_rows(parent, change, _compare_metrics())}
    assert rows["iters_per_s"]["verdict"] == "improved"
    assert rows["iters_per_s"]["wins"] == 10 and rows["iters_per_s"]["pairs"] == 10
    assert rows["setup_s"]["verdict"] == "no worse"
    assert rows["peak_rss_mb"]["verdict"] == "regressed"
    assert rows["resume_s"]["verdict"] == "unresolved"
    # Deterministic metrics are judged pair by pair: a 0.01 drop on every
    # seed is a regression although it is far inside the seeds' spread.
    assert rows["final_accuracy"]["verdict"] == "regressed"
    # Two of ten seeds got later (one never reached the target); the
    # median pair did not move.
    assert rows["iters_to_target"]["verdict"] == "no worse"
    few = compare_rows(parent[:5], change[:5], _compare_metrics())
    assert {r["metric"]: r["verdict"] for r in few}["iters_per_s"] != "improved"


def test_verdict_rules():
    assert summarize([1.0, 2.0, 3.0, 4.0])["n"] == 4
    # Every change run beats every parent run: not unresolved despite spread.
    row = verdict([10, 20, 10, 20] * 3, [21, 30, 21, 30] * 3, "higher", 0.1)
    assert row["verdict"] == "improved"
    row = verdict([10, 20] * 5, [10, 20] * 5, "lower", 0.1)
    assert row["verdict"] == "unresolved"
    # Paired, deterministic: an exact tolerance flags any median move.
    seeds = [18, 24, 30, 36, 42, 48, 24, 30, 36, 42]
    assert paired_verdict(seeds, seeds, "lower", 0)["verdict"] == "no worse"
    later = [s + 6 for s in seeds]
    assert paired_verdict(seeds, later, "lower", 0)["verdict"] == "regressed"
    earlier = [s - 6 for s in seeds]
    assert paired_verdict(seeds, earlier, "lower", 0)["verdict"] == "improved"
    assert paired_verdict(seeds[:5], earlier[:5], "lower", 0)["verdict"] == "no worse"
    within = [a + 0.004 for a in (0.9, 0.8, 0.95)]
    assert paired_verdict([0.9, 0.8, 0.95], within, "higher", 0.005)["verdict"] == "no worse"


def test_compare_command(scratch_dir):
    parent, change = _synthetic()
    paths = {"parent": [], "change": []}
    for side, records in (("parent", parent), ("change", change)):
        for i, rec in enumerate(records):
            path = scratch_dir / f"{side}{i}.json"
            path.write_text(json.dumps(rec))
            paths[side].append(str(path))
    code, lines = _run_cli("compare", "--parent", *paths["parent"], "--change", *paths["change"])
    assert code == 0
    text = "\n".join(lines)
    assert "improved" in text and "regressed" in text and "unresolved" in text
    assert "parent: 0/1000 iterations failed (0.00%)" in text
    assert "change: 5/1000 iterations failed (0.50%)" in text
