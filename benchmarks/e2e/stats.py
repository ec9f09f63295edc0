"""Medians, quartiles and the parent-versus-change verdicts."""

from __future__ import annotations

import math
import statistics

__all__ = ["summarize", "better", "verdict", "paired_verdict", "compare_rows"]

MIN_PAIRS = 10
WIN_SHARE = 0.9


def summarize(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def better(a: float, b: float, direction: str) -> bool:
    """True when ``a`` reads strictly better than ``b``."""
    return a < b if direction == "lower" else a > b


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> dict:
    """One (workload, metric) row: medians, quartiles, pair wins, verdict.

    ``parent[i]`` and ``change[i]`` form pair ``i``.  Verdicts:

    * ``improved`` -- at least 9/10 pair wins over at least ten pairs, and
      a median gap larger than the parent's interquartile range;
    * ``unresolved`` -- a side's spread (IQR over median) is wider than
      the bound, unless every change run beats every parent run;
    * ``no worse`` -- the change's median is within the bound of the parent's;
    * ``regressed`` -- otherwise.
    """
    p, c = summarize(parent), summarize(change)
    pairs = min(len(parent), len(change))
    wins = sum(better(change[i], parent[i], direction) for i in range(pairs))
    gain = p["value"] - c["value"] if direction == "lower" else c["value"] - p["value"]
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["value"]) if s["value"] else 0.0 for s in (p, c)
    )
    dominates = all(better(x, y, direction) for x in change for y in parent)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > p["q3"] - p["q1"]:
        outcome = "improved"
    elif spread > bound and not dominates:
        outcome = "unresolved"
    elif -gain <= bound * abs(p["value"]):
        outcome = "no worse"
    else:
        outcome = "regressed"
    return {"parent": p, "change": c, "pairs": pairs, "wins": wins, "verdict": outcome}


def paired_verdict(
    parent: list[float], change: list[float], direction: str, tolerance: float
) -> dict:
    """One row for a metric that is deterministic for a seed.

    Both runs of a pair used the same seed, so their difference is the
    change's effect alone, with no noise to average out.  The verdict
    reads the median pair difference against an absolute tolerance:

    * ``improved`` -- at least 9/10 pair wins over at least ten pairs, and
      a median gain larger than the tolerance;
    * ``regressed`` -- the median pair loses by more than the tolerance;
    * ``no worse`` -- otherwise.
    """
    pairs = min(len(parent), len(change))
    gains = [
        0.0 if c == p else (p - c if direction == "lower" else c - p)
        for p, c in zip(parent, change)
    ]
    wins = sum(gain > 0 for gain in gains)
    gain = statistics.median(gains)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and gain > tolerance:
        outcome = "improved"
    elif gain < -tolerance:
        outcome = "regressed"
    else:
        outcome = "no worse"
    return {
        "parent": summarize(parent),
        "change": summarize(change),
        "pairs": pairs,
        "wins": wins,
        "verdict": outcome,
    }


def compare_rows(parent: list[dict], change: list[dict], metrics: dict[str, dict]) -> list[dict]:
    """Rows for every (workload, metric) both sides reported.

    ``parent``/``change`` are result records, paired per workload in
    the order given.  ``metrics`` maps a metric name to its ``better``
    direction and either a relative ``bound`` (a timing, judged by
    :func:`verdict`) or an absolute ``tolerance`` (a deterministic
    value, judged by :func:`paired_verdict`).  A target a run never
    reached reads as infinitely many iterations.
    """
    rows = []
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    for workload in workloads:
        ps = [r for r in parent if r["workload"] == workload]
        cs = [r for r in change if r["workload"] == workload]
        for name, spec in metrics.items():
            pv, cv = (
                [_value(r["metrics"][name]) for r in side if name in r["metrics"]]
                for side in (ps, cs)
            )
            if not pv or not cv:
                continue
            if "tolerance" in spec:
                row = paired_verdict(pv, cv, spec["better"], spec["tolerance"])
            else:
                row = verdict(pv, cv, spec["better"], spec["bound"])
            row.update(workload=workload, metric=name)
            rows.append(row)
    return rows


def _value(entry: dict) -> float:
    return math.inf if entry["value"] is None else entry["value"]
