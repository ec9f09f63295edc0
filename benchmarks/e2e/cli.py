"""Command line of the end-to-end benchmark.

::

    python -m benchmarks.e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
    python -m benchmarks.e2e trace [--workload NAME] [--seed N] [--seconds S]
    python -m benchmarks.e2e compare --parent A1.json ... --change B1.json ...

``run`` measures each workload in fresh child processes, one at a time,
until ``--seconds`` have passed (at least ``MIN_PROCESSES`` of them),
checks every process's outputs, prints each metric with its unit,
quartiles and sample count, writes a result JSON under
``.bench_e2e/results/``, and prints one JSON object as the last line of
standard output.
``--trace 1`` (or ``trace``) alternates untraced and traced processes
and reports the per-layer metrics instead.  Run it from any directory;
paths resolve against the checkout that holds this package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.e2e import checks
from benchmarks.e2e.stats import compare_rows, summarize
from benchmarks.e2e.tracing import PER_LAYER, SPANS
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
OUTPUT = ROOT / ".bench_e2e"
REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120

# Timings are reported at a reference machine speed: a machine on which
# the probe loop (child.probe) takes this long.  Each timed phase is
# scaled by the mean probe reading at its start and end, which cancels
# the minute-long slowdowns other tenants of a shared host cause.
PROBE_REFERENCE_S = 1e-3

# (name, unit) of every end-to-end timing and size; BENCHMARK.json lists
# the same set with its direction and bound.
END_TO_END = (
    ("setup_s", "s"),
    ("iters_per_s", "it/s"),
    ("peak_rss_mb", "MiB"),
    ("resume_s", "s"),
)

# (name, unit, better, absolute tolerance) of the convergence metrics.
# They are deterministic for a seed but vary widely between seeds, wider
# than a BENCHMARK.json bound (a share of the median over runs of
# different seeds) may be, so they are not listed there.  Every result
# file reports them, and ``compare`` judges them pair by pair, both runs
# of a pair on the same seed.
CONVERGENCE = (
    ("iters_to_target", "iterations", "lower", 0),
    ("final_accuracy", "fraction", "higher", 0.005),
)

# Fewest processes an untraced, full-length run measures.
MIN_PROCESSES = 3


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_record() -> dict:
    """Where the numbers came from, including a calibration GEMM.

    ``calib.gemm_gflops`` is the best of five float64 512x512x512
    matrix products under the same thread settings as the workloads.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 512, 512))
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - started)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calib.gemm_gflops": 2 * 512**3 / best / 1e9,
    }


def spawn_child(name: str, seed: int, traced: bool, smoke: bool, trace_out: Path | None) -> dict:
    """Run one child process to completion and return its record."""
    work_root = OUTPUT / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    out = work / "record.json"
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(work)
    command = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", name, "--seed", str(seed), "--trace", str(int(traced)),
        "--record", str(out), "--work", str(work),
    ]
    if smoke:
        command.append("--smoke")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    try:
        spawned = time.perf_counter()
        proc = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if out.exists():
            record = json.loads(out.read_text())
        else:
            record = {"error": proc.stderr or f"exit code {proc.returncode}"}
    except subprocess.TimeoutExpired:
        record = {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not record.get("error"):
        record["setup_s"] = record["t_run_call"] - spawned
    record["traced"] = traced
    return record


def at_reference_speed(child: dict) -> dict:
    """One process's end-to-end values, timings scaled to the reference.

    ``probes`` are readings at process start, before ``run()``, after
    ``run()`` and after the resume; a phase's speed is the mean of the
    readings that bracket it.
    """
    start, before, after, end = (p / PROBE_REFERENCE_S for p in child["probes"])
    return {
        "setup_s": child["setup_s"] / ((start + before) / 2),
        "iters_per_s": child["iterations"] / child["run_s"] * (before + after) / 2,
        "peak_rss_mb": child["peak_rss_mb"],
        "resume_s": child["resume_s"] / ((after + end) / 2),
    }


def _iters_to_target(history: dict, target: float) -> int | None:
    for iteration, accuracy in zip(history["iterations"], history["test_accuracy"]):
        if accuracy >= target:
            return iteration
    return None


def measure(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    smoke: bool = False,
) -> dict:
    """Measure one workload; returns the full result record."""
    workload = WORKLOADS[name]
    plan = workload.plan(smoke)
    repeats = 1 if (trace or smoke) else MIN_PROCESSES
    machine = machine_record()
    reference = None
    if seed == DEFAULT_SEED and not smoke and REFERENCE.exists():
        reference = json.loads(REFERENCE.read_text())["workloads"].get(name)
    trace_out = OUTPUT / "trace" / f"{name}.jsonl" if trace else None
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
    per_child = plan.iterations + plan.iterations - plan.resume_from
    kinds = (False, True) if trace else (False,)

    children: list[dict] = []
    started_at = time.time()
    started = time.perf_counter()
    while True:
        for traced in kinds:
            first_trace = traced and not any(c["traced"] for c in children)
            children.append(
                spawn_child(name, seed, traced, smoke, trace_out if first_trace else None)
            )
        rounds = len(children) // len(kinds)
        elapsed = time.perf_counter() - started
        if rounds >= repeats and elapsed * (rounds + 1) / rounds > seconds:
            break

    baseline = next((c["history"] for c in children if not c.get("error")), None)
    transfers = workload.expected_transfers(plan)
    failures: list[str] = []
    failed = 0
    for index, child in enumerate(children):
        found = checks.check_child(
            child,
            floor=None if smoke else workload.floor,
            expected_resume_from=plan.resume_from,
            expected_transfers=transfers,
            reference=reference,
            baseline=baseline if child.get("history") is not baseline else None,
        )
        child["failures"] = found
        failures += [f"process {index}: {failure}" for failure in found]
        failed += checks.failed_iterations(per_child, found)
    attempted = per_child * len(children)

    plain = [c for c in children if not c["traced"] and not c.get("error")]
    traced_ok = [c for c in children if c["traced"] and not c.get("error")]
    metrics: dict[str, dict] = {}
    samples: dict[str, list[float]] = {}
    if trace and plain and traced_ok:
        for metric, unit, _ in PER_LAYER:
            if metric == "calib.gemm_gflops":
                values = [machine["calib.gemm_gflops"]]
            elif metric == "trace.overhead":
                values = [
                    statistics.median(
                        1 / at_reference_speed(c)["iters_per_s"] for c in traced_ok
                    )
                    / statistics.median(
                        1 / at_reference_speed(c)["iters_per_s"] for c in plain
                    )
                    - 1.0
                ]
            else:
                values = [c["trace"]["metrics"][metric] for c in traced_ok]
            samples[metric] = values
            metrics[metric] = {**summarize(values), "unit": unit}
    elif not trace and plain:
        scaled = [at_reference_speed(c) for c in plain]
        samples = {metric: [s[metric] for s in scaled] for metric, _ in END_TO_END}
        metrics = {
            metric: {**summarize(samples[metric]), "unit": unit}
            for metric, unit in END_TO_END
        }
        # Every process reproduces the first one's history (a check), so
        # the first history gives the convergence values of them all.
        reached = {
            "iters_to_target": _iters_to_target(baseline, workload.target),
            "final_accuracy": baseline["test_accuracy"][-1],
        }
        for metric, unit, _, _ in CONVERGENCE:
            value = reached[metric]
            metrics[metric] = {"value": value, "q1": value, "q3": value,
                               "n": len(plain), "unit": unit}
    if not metrics:
        failures.append("no process produced measurements")

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "seconds": seconds,
        "started_at": started_at,
        "machine": machine,
        "plan": vars(plan),
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "samples": samples,
        "raw_samples": {
            "setup_s": [c["setup_s"] for c in plain],
            "iters_per_s": [c["iterations"] / c["run_s"] for c in plain],
            "resume_s": [c["resume_s"] for c in plain],
            "probes": [c["probes"] for c in plain],
        },
        "target": workload.target,
        "floor": workload.floor,
        "history": baseline,
        "processes": [
            {
                "traced": c["traced"],
                "failures": c["failures"],
                "run_s": c.get("run_s"),
                "run_wall_s": (c.get("trace") or {}).get("run_wall_s"),
            }
            for c in children
        ],
    }


def _fmt(value: float | None) -> str:
    if value is None:
        return "never"
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.4e}"


def print_result(result: dict) -> None:
    status = "pass" if result["correct"] else "FAIL"
    print(
        f"\n{result['workload']}  seed {result['seed']}  "
        f"{len(result['processes'])} processes  "
        f"{result['attempted']} iterations attempted, {result['failed']} failed  "
        f"checks: {status}"
    )
    for failure in result["failures"]:
        print(f"  check failed: {failure}")
    if result["trace"]:
        _print_layers(result)
        return
    print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    for name, entry in result["metrics"].items():
        print(
            f"  {name:<16}{_fmt(entry['value']):>12}{_fmt(entry['q1']):>12}"
            f"{_fmt(entry['q3']):>12}{entry['n']:>4}  {entry['unit']}"
        )
    if result["metrics"]:
        print(f"  (target accuracy {result['target']}, floor {result['floor']})")


def _print_layers(result: dict) -> None:
    metrics = result["metrics"]
    if not metrics:
        return
    walls = [p["run_wall_s"] for p in result["processes"] if p["run_wall_s"]]
    wall = statistics.median(walls)
    rows = sorted(SPANS, key=lambda s: metrics[f"{s}.self_s"]["value"], reverse=True)
    print(f"  {'span':<24}{'calls':>8}{'self_s':>10}{'share':>8}{'p50_ms':>10}{'p_hi_ms':>10}")
    for span in rows:
        calls = metrics[f"{span}.calls"]["value"]
        if not calls:
            continue
        own = metrics[f"{span}.self_s"]["value"]
        p50 = metrics.get(f"{span}.p50_ms", {}).get("value")
        p_hi = metrics.get(f"{span}.p_hi_ms", {}).get("value")
        # Restore runs outside run(), so it has no share of its wall.
        share = "" if span == "checkpoint.restore" else f"{own / wall:.1%}"
        print(
            f"  {span:<24}{calls:>8.0f}{own:>10.4f}{share:>8}"
            f"{'' if p50 is None else _fmt(p50):>10}{'' if p_hi is None else _fmt(p_hi):>10}"
        )
    print(f"  (share = self time / {wall:.3f} s wall of the run() spans)")
    for name, _, _ in PER_LAYER:
        if name.split(".")[-1] not in ("calls", "self_s", "p50_ms", "p_hi_ms"):
            entry = metrics[name]
            print(f"  {name:<32}{_fmt(entry['value']):>14}  {entry['unit']}")


def _contract_line(results: list[dict], listed: set[str]) -> dict:
    """The last stdout line: correctness, operation counts and the
    metrics ``BENCHMARK.json`` lists (``listed``)."""
    prefix = len(results) > 1
    metrics = {
        f"{r['workload']}.{name}" if prefix else name: {
            "value": entry["value"], "unit": entry["unit"],
        }
        for r in results
        for name, entry in r["metrics"].items()
        if name in listed
    }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _update_reference(results: list[dict]) -> None:
    """Store default-seed outputs and the run's medians as the baseline."""
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    stored.setdefault("default_seed", DEFAULT_SEED)
    for result in results:
        history = result["history"]
        ref = stored.setdefault("workloads", {}).setdefault(result["workload"], {})
        ref["final_test_loss"] = history["test_loss"][-1]
        if history["eval_times"]:
            ref["eval_times"] = history["eval_times"]
        if result["trace"]:
            continue
        baseline = stored.setdefault("baseline", {})
        baseline["machine"] = result["machine"]
        baseline.setdefault("end_to_end", {})[result["workload"]] = {
            name: {k: entry[k] for k in ("value", "q1", "q3", "n")}
            for name, entry in result["metrics"].items()
        }
    REFERENCE.write_text(json.dumps(stored, indent=1) + "\n")


def _cmd_run(args) -> int:
    # A terminated run unwinds like an interrupt, so the child process
    # in flight is killed and waited for rather than orphaned.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.update_reference and (args.smoke or args.seed != DEFAULT_SEED):
        print(f"benchmark: --update-reference needs full runs of seed {DEFAULT_SEED}",
              file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"benchmark: unknown workload(s) {unknown}; choose from {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    seconds = args.seconds
    if seconds is None:
        seconds = 0 if args.smoke else spec["run_seconds"]
    results = []
    results_dir = OUTPUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        result = measure(name, args.seed, seconds, trace=bool(args.trace), smoke=args.smoke)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(result["started_at"]))
        path = results_dir / f"{name}-seed{args.seed}-trace{int(bool(args.trace))}-{stamp}.json"
        path.write_text(json.dumps(result, indent=1))
        print_result(result)
        print(f"  result: {path}")
        results.append(result)
    if args.update_reference:
        _update_reference(results)
    listed = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(_contract_line(results, listed)))
    return 0 if all(r["correct"] for r in results) else 1


def _cmd_compare(args) -> int:
    def load(paths):
        # The i-th parent run pairs with the i-th change run of the same
        # workload: ordered by seed, then by start time.
        records = [json.loads(Path(p).read_text()) for p in paths]
        return sorted(records, key=lambda r: (r["seed"], r["started_at"]))

    parent, change = load(args.parent), load(args.change)
    metrics = {m["name"]: m for m in _benchmark_spec()["end_to_end"]}
    for name, _, direction, tolerance in CONVERGENCE:
        metrics[name] = {"better": direction, "tolerance": tolerance}
    rows = compare_rows(parent, change, metrics)
    print(
        f"{'workload':<18}{'metric':<16}{'parent median [q1, q3]':>30}"
        f"{'change median [q1, q3]':>30}{'wins':>8}  verdict"
    )
    for row in rows:
        p, c = row["parent"], row["change"]
        print(
            f"{row['workload']:<18}{row['metric']:<16}"
            f"{_fmt(p['value']):>10} [{_fmt(p['q1'])}, {_fmt(p['q3'])}]".ljust(62)
            + f"{_fmt(c['value']):>10} [{_fmt(c['q1'])}, {_fmt(c['q3'])}]".ljust(30)
            + f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}"
        )
    if rows and min(row["pairs"] for row in rows) < 10:
        print("fewer than 10 pairs: no gain can be claimed")
    for label, records in (("parent", parent), ("change", change)):
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        share = failed / attempted if attempted else 0.0
        print(f"{label}: {failed}/{attempted} iterations failed ({share:.2%})")
    return 0


def _cmd_child(args) -> int:
    from benchmarks.e2e.child import run_child

    return run_child(
        args.workload, args.seed, bool(args.trace), args.smoke,
        Path(args.record), Path(args.work),
        Path(args.trace_out) if args.trace_out else None,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command, help=f"{command} the workloads")
        p.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--seconds", type=float, help="measuring time per workload "
                       "(default: run_seconds of BENCHMARK.json)")
        p.add_argument("--smoke", action="store_true",
                       help="short runs, one process each: checks only")
        p.add_argument("--update-reference", action="store_true",
                       help="store this run's outputs and medians in reference.json")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        else:
            p.set_defaults(trace=1)
    p = sub.add_parser("compare", help="parent vs change over paired result files")
    p.add_argument("--parent", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p = sub.add_parser("child", help=argparse.SUPPRESS)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--trace-out")
    args = parser.parse_args(argv)
    handler = {"run": _cmd_run, "trace": _cmd_run, "compare": _cmd_compare, "child": _cmd_child}
    return handler[args.command](args)
