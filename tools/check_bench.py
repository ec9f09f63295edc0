#!/usr/bin/env python
"""Compare fresh ``BENCH_*.json`` results against committed baselines.

The ``benchmarks/`` suite writes machine-readable results into
``BENCH_<stem>.json`` at the repo root; those files are committed and
double as the performance record.  This checker diffs a fresh run
against the committed baselines and fails on a real regression:

* ``higher_better`` keys (speedups, throughputs) must not drop more
  than ``--tolerance`` (default 20%) below the baseline value;
* ``within_threshold`` keys (overhead ratios, exact call counts) must
  stay at or below the entry's own committed ``threshold`` field — the
  same absolute gate the bench asserts, re-checked from the recorded
  numbers.  An entry gating several keys records one threshold per key
  (``threshold: {key: bound}``).

Raw microsecond timings and raw rates are deliberately *not* gated:
they shift with the machine, while ratios (speedup, overhead) are
self-normalizing.  Throughputs are gated as ``events_per_probe``, the
rate times a pure-Python probe loop's duration
(``benchmarks/timing.py::rate_per_probe``).
Missing files, entries or keys are reported but never fail the check —
a partial bench run only validates what it measured.  With no
``--fresh`` the committed files are compared with themselves, so each
``higher_better`` key would compare a number with itself: the checker
skips it with a note that names it and says it needs ``--fresh``.

Usage::

    python tools/check_bench.py                 # self-check repo files
    python tools/check_bench.py --fresh OUT/    # diff OUT/ vs committed
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Default drop tolerance for higher_better keys (>20% = regression).
TOLERANCE = 0.2

# stem -> entry -> [(key, kind)]; kind in {"higher_better", "within_threshold"}
GATES = {
    "batched": {
        "gradient_pass_16worker_mlp": [("speedup", "higher_better")],
        "batched_cnn": [("speedup", "higher_better")],
    },
    "checkpoint": {
        "checkpoint_overhead": [("overhead", "within_threshold")],
    },
    "eventsim": {
        "engine_event_throughput": [("events_per_probe", "higher_better")],
        "engine_waves": [("waves", "within_threshold")],
    },
    "faults": {
        "zero_plan_overhead": [("overhead", "within_threshold")],
        "zero_plan_calls": [("calls_per_iteration", "within_threshold")],
    },
    "monitor": {
        "null_monitor_overhead": [("disabled_overhead", "within_threshold")],
        "null_monitor_calls": [("calls_per_step", "within_threshold")],
        "jsonl_sink_throughput": [("events_per_probe", "higher_better")],
    },
    "population": {
        "bounded_memory": [("rss_ratio_1m_over_10k", "within_threshold")],
        "rebind_cost": [("rebind_over_draws", "within_threshold")],
        "rebind_calls": [
            ("fixed_calls", "within_threshold"),
            ("calls_per_arrival", "within_threshold"),
        ],
    },
    "telemetry": {
        "null_tracer_overhead": [("disabled_overhead", "within_threshold")],
        "null_tracer_calls": [("calls_per_step", "within_threshold")],
    },
}


def _load_entries(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8")).get("entries", {})


def compare_entry(
    stem: str,
    entry: str,
    fresh: dict,
    baseline: dict,
    *,
    tolerance: float = TOLERANCE,
    self_check: bool = False,
) -> tuple[list[str], list[str]]:
    """Gate one bench entry; returns (failures, notes).

    ``self_check`` says ``fresh`` and ``baseline`` come from one file,
    which leaves the ``higher_better`` keys nothing to judge.
    """
    failures: list[str] = []
    notes: list[str] = []
    for key, kind in GATES[stem][entry]:
        value = fresh.get(key)
        if value is None:
            notes.append(f"{stem}/{entry}: key {key!r} missing, skipped")
            continue
        if kind == "higher_better":
            if self_check:
                notes.append(
                    f"{stem}/{entry}.{key}: not judged, the fresh and "
                    "baseline files are the same; needs --fresh"
                )
                continue
            reference = baseline.get(key)
            if reference is None:
                notes.append(
                    f"{stem}/{entry}: no baseline for {key!r}, skipped"
                )
                continue
            floor = reference * (1.0 - tolerance)
            if value < floor:
                failures.append(
                    f"{stem}/{entry}.{key}: {value:g} fell more than "
                    f"{tolerance:.0%} below the baseline {reference:g}"
                )
        elif kind == "within_threshold":
            threshold = fresh.get("threshold")
            if isinstance(threshold, dict):
                threshold = threshold.get(key)
            if threshold is None:
                notes.append(
                    f"{stem}/{entry}: no committed threshold, skipped"
                )
                continue
            if value > threshold:
                failures.append(
                    f"{stem}/{entry}.{key}: {value:g} exceeds the "
                    f"committed threshold {threshold:g}"
                )
        else:  # pragma: no cover - guarded by the GATES literal
            raise ValueError(f"unknown gate kind {kind!r}")
    return failures, notes


def check(
    fresh_dir: Path,
    baseline_dir: Path,
    *,
    tolerance: float = TOLERANCE,
) -> tuple[list[str], list[str]]:
    """Gate every configured bench file; returns (failures, notes)."""
    failures: list[str] = []
    notes: list[str] = []
    for stem, entries in sorted(GATES.items()):
        fresh_path = fresh_dir / f"BENCH_{stem}.json"
        baseline_path = baseline_dir / f"BENCH_{stem}.json"
        if not fresh_path.exists():
            notes.append(f"{stem}: no fresh {fresh_path.name}, skipped")
            continue
        fresh_entries = _load_entries(fresh_path)
        baseline_entries = (
            _load_entries(baseline_path) if baseline_path.exists() else {}
        )
        self_check = fresh_path.resolve() == baseline_path.resolve()
        for entry in sorted(entries):
            fresh_entry = fresh_entries.get(entry)
            if fresh_entry is None:
                notes.append(f"{stem}/{entry}: not in fresh run, skipped")
                continue
            entry_failures, entry_notes = compare_entry(
                stem,
                entry,
                fresh_entry,
                baseline_entries.get(entry, {}),
                tolerance=tolerance,
                self_check=self_check,
            )
            failures.extend(entry_failures)
            notes.extend(entry_notes)
    return failures, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh", type=Path, default=REPO_ROOT,
        help="directory holding the fresh BENCH_*.json (default: repo root)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=REPO_ROOT,
        help="directory holding the committed baselines (default: repo root)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help="allowed fractional drop for higher-better keys (default 0.2)",
    )
    args = parser.parse_args(argv)
    failures, notes = check(
        args.fresh, args.baseline, tolerance=args.tolerance
    )
    for note in notes:
        print(f"note: {note}")
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("bench gates OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
