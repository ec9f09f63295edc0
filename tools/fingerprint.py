#!/usr/bin/env python
"""Run a fixed matrix of seeded runs and digest each one, field by field.

A numerics change that claims to be bit-exact runs this on the parent
commit and on the change, then diffs the two files::

    python tools/fingerprint.py run --out change.json
    PYTHONPATH=../parent/src:../parent \\
        python tools/fingerprint.py run --out parent.json
    python tools/fingerprint.py --diff parent.json change.json

The tool appends this checkout to ``sys.path`` after anything on
``PYTHONPATH``, so the second command fingerprints the other checkout's
library, goldens and workloads with this tool.  BLAS runs on one thread
unless the environment says otherwise: the thread count can change a
GEMM's summation order, so both sides must share it.

The matrix (``MATRIX``):

* ``sync/<name>/<backend>``: the 15 sync goldens of
  ``tests/integration/test_golden_trajectories.py``, on the batched and
  the loop backend;
* ``cnn/<name>/<backend>``: the 3 CNN goldens, on both backends;
* ``e2e/<workload>/seed<s>``: the four ``benchmarks/e2e`` workloads at
  seeds 1 and 2, built by ``benchmarks.e2e.workloads.build`` at their
  full plan, run without checkpoints or the monitor.

Each run records its history series as ``float.hex`` (iterations,
accuracies, losses, ``eval_times``, ``gamma_trace``), the divergence
flags, the comm ledger, ``fault_summary``, a sha256 per
``checkpoint_arrays()`` entry, ``checkpoint_values()``, and every
batch-norm running buffer.  ``--diff`` names every run and field that
moved, with the largest relative change of each moved series, and
exits 1 when anything moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # Before numpy loads.  An importer (the tests) keeps its own thread
    # settings and import path.
    for _var in THREAD_VARS:
        os.environ.setdefault(_var, "1")
    sys.path += [str(REPO_ROOT / "src"), str(REPO_ROOT)]

import numpy as np  # noqa: E402

from benchmarks.e2e.workloads import WORKLOADS, build as build_workload  # noqa: E402
from tests.integration import test_golden_trajectories as goldens  # noqa: E402

SERIES = ("iterations", "test_accuracy", "test_loss", "train_loss", "eval_times")
BACKENDS = ("batched", "loop")
E2E_SEEDS = (1, 2)


# ----------------------------------------------------------------------
# The matrix: run name -> builder returning (algorithm, iterations,
# eval_every) on a fresh, fully seeded federation.
# ----------------------------------------------------------------------
def _golden(name: str, backend: str, cnn: bool):
    if cnn:
        cls, kwargs = goldens.CNN_ALGORITHMS[name]
        federation = goldens.build_cnn_federation(backend)
        iterations = goldens.CNN_ITERATIONS
    else:
        cls, kwargs = goldens.ALGORITHMS[name]
        federation = goldens.build_federation(backend)
        iterations = goldens.TOTAL_ITERATIONS
    return cls(federation, **kwargs), iterations, goldens.EVAL_EVERY


def _workload(name: str, seed: int):
    spec = WORKLOADS[name]
    _, algorithm = build_workload(spec, seed, spec.full)
    return algorithm, spec.full.iterations, spec.full.eval_every


MATRIX = {
    **{
        f"sync/{name}/{backend}": partial(_golden, name, backend, False)
        for name in sorted(goldens.ALGORITHMS)
        for backend in BACKENDS
    },
    **{
        f"cnn/{name}/{backend}": partial(_golden, name, backend, True)
        for name in sorted(goldens.CNN_ALGORITHMS)
        for backend in BACKENDS
    },
    **{
        f"e2e/{name}/seed{seed}": partial(_workload, name, seed)
        for name in WORKLOADS
        for seed in E2E_SEEDS
    },
}


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _hex(value) -> str:
    return float(value).hex()


def canonical(value):
    """JSON-able, exact form: floats as ``float.hex``, arrays as sha256."""
    if isinstance(value, np.ndarray):
        return _sha256(value)
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return _hex(value)
    return value


def _sha256(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


def digest(algorithm, history) -> dict:
    """One run's fingerprint, field by field."""
    record = {
        f"history.{series}": [_hex(v) for v in getattr(history, series)]
        for series in SERIES
    }
    record["history.gamma_trace"] = [
        [_hex(trace[edge]) for edge in sorted(trace)]
        for trace in history.gamma_trace
    ]
    record["history.diverged"] = [history.diverged, history.diverged_at]
    record["comm"] = canonical(history.comm.to_dict())
    record["fault_summary"] = canonical(history.fault_summary)
    for name, array in algorithm.checkpoint_arrays().items():
        record[f"arrays.{name}"] = _sha256(array)
    for name, value in algorithm.checkpoint_values().items():
        record[f"values.{name}"] = canonical(value)
    layers = [
        layer
        for layer in algorithm.fed.model.module.modules()
        if hasattr(layer, "get_buffers")
    ]
    for index, layer in enumerate(layers):
        for name, buffer in layer.get_buffers().items():
            record[f"buffers.{index}.{name}"] = [_hex(v) for v in buffer.ravel()]
    return record


def fingerprint(names=None, *, progress=None) -> dict:
    """Run ``names`` (default: the whole matrix) and digest each run.

    A run that raises is recorded as ``{"error": <traceback>}``, so the
    diff names it instead of the whole matrix failing.
    """
    import repro

    runs = {}
    seconds = {}
    for name in names if names is not None else MATRIX:
        started = time.perf_counter()
        try:
            algorithm, iterations, eval_every = MATRIX[name]()
            history = algorithm.run(iterations, eval_every=eval_every)
            runs[name] = digest(algorithm, history)
        except Exception:
            runs[name] = {"error": traceback.format_exc()}
        seconds[name] = round(time.perf_counter() - started, 3)
        if progress is not None:
            progress(f"{name}: {seconds[name]:.2f} s")
    return {
        # Not compared: where the numbers came from.
        "meta": {
            "repro": str(Path(repro.__file__).resolve().parent),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "seconds": seconds,
        },
        "runs": runs,
    }


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
def _floats(value) -> list[float] | None:
    """A float, or a (nested) series of them, as one flat list.

    ``None`` when ``value`` holds anything but ``float.hex`` strings.
    """
    if isinstance(value, list):
        flat = []
        for item in value:
            floats = _floats(item)
            if floats is None:
                return None
            flat += floats
        return flat
    if isinstance(value, str) and ("0x" in value or value in ("inf", "-inf", "nan")):
        return [float.fromhex(value)]
    return None


def _relative_change(a: list[float], b: list[float]) -> float:
    """Largest ``|a - b| / max(|a|, |b|)`` over the moved entries."""
    largest = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        largest = max(largest, abs(x - y) / max(abs(x), abs(y)))
    return largest


_MISSING = object()


def _describe(field: str, a, b) -> str:
    if a is _MISSING or b is _MISSING:
        return "missing in " + ("A" if a is _MISSING else "B")
    if field.startswith("arrays."):
        return "sha256 changed"
    fa, fb = _floats(a), _floats(b)
    if fa is None or fb is None:
        return "changed"
    if len(fa) != len(fb):
        return f"length {len(fa)} -> {len(fb)}"
    return f"max rel change {_relative_change(fa, fb):.3g}"


def diff(a: dict, b: dict) -> list[tuple[str, str, str]]:
    """``(run, field, description)`` for every field that moved."""
    moved = []
    runs_a, runs_b = a["runs"], b["runs"]
    for run in sorted(set(runs_a) | set(runs_b)):
        if run not in runs_a or run not in runs_b:
            side = "A" if run not in runs_a else "B"
            moved.append((run, "*", f"run missing in {side}"))
            continue
        fields_a, fields_b = runs_a[run], runs_b[run]
        for field in sorted(set(fields_a) | set(fields_b)):
            value_a = fields_a.get(field, _MISSING)
            value_b = fields_b.get(field, _MISSING)
            if value_a != value_b:
                moved.append((run, field, _describe(field, value_a, value_b)))
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", nargs="?", choices=["run"])
    parser.add_argument("--out", type=Path, help="where `run` writes the fingerprint")
    parser.add_argument(
        "--diff", nargs=2, type=Path, metavar=("A", "B"),
        help="compare two fingerprint files; exit 1 if any field moved",
    )
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(path.read_text()) for path in args.diff)
        moved = diff(a, b)
        total = len(set(a["runs"]) | set(b["runs"]))
        runs_moved = sorted({run for run, _, _ in moved})
        for run in runs_moved:
            print(f"moved: {run}")
            for _, field, description in (m for m in moved if m[0] == run):
                print(f"  {field}: {description}")
        if moved:
            print(f"{len(runs_moved)} of {total} runs moved ({len(moved)} fields)")
            return 1
        print(f"no field moved in {total} runs")
        return 0
    if args.command != "run" or args.out is None:
        parser.error("give `run --out FILE` or `--diff A B`")
    started = time.perf_counter()
    document = fingerprint(progress=lambda line: print(line, flush=True))
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True))
    errors = [name for name, run in document["runs"].items() if "error" in run]
    print(
        f"wrote {args.out}: {len(document['runs'])} runs, {len(errors)} errors, "
        f"{time.perf_counter() - started:.1f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
