"""Output checks on one measured process.

Each check takes plain data from a child's result record and returns a
failure message, or ``None`` when it passes, so a test can feed it a
record with one value broken and see it fire.  The oracles are kept
apart from the code they check: transfer counts of the fault-free
workloads come from a closed form over T, tau, pi and the worker count,
ledger bytes are recomputed from the federation's dimension and the
algorithm class's payload, and the resumed and repeated histories come
from other runs.
"""

from __future__ import annotations

import math

__all__ = [
    "BYTES_PER_PARAM",
    "check_child",
    "failed_iterations",
    "finite_losses",
    "accuracy_floor",
    "ledger_identity",
    "ledger_transfers",
    "resume_identity",
    "same_history",
    "reference_outputs",
    "trace_complete",
]

BYTES_PER_PARAM = 8
HISTORY_SERIES = ("iterations", "test_accuracy", "test_loss", "train_loss", "eval_times")


def finite_losses(history: dict) -> str | None:
    """Every recorded train loss is finite; the run neither diverged nor aborted.

    The iteration-0 evaluation precedes any training, so it records no
    train loss (``None``) and is skipped.
    """
    if history["diverged"]:
        return f"run diverged at iteration {history['diverged_at']}"
    if history["aborted_by"]:
        return f"run aborted by monitor {history['aborted_by']}"
    for iteration, loss in zip(history["iterations"], history["train_loss"]):
        if iteration == 0:
            continue
        if loss is None or not math.isfinite(loss):
            return f"train loss at iteration {iteration} is {loss}"
    return None


def accuracy_floor(history: dict, floor: float) -> str | None:
    final = history["test_accuracy"][-1]
    if final < floor:
        return f"final accuracy {final:.4f} below floor {floor}"
    return None


def ledger_identity(ledger: dict) -> str | None:
    """Bytes per tier equal transfers x dim x 8 x payload multiplier.

    ``dim`` and ``payload_multiplier`` come from the federation and the
    algorithm class, not from the ledger.
    """
    comm = ledger["comm"]
    vector = ledger["dim"] * BYTES_PER_PARAM * ledger["payload_multiplier"]
    for tier in ("worker_edge", "edge_cloud"):
        expected = comm[f"{tier}_events"] * vector
        if comm[f"{tier}_bytes"] != expected:
            return (
                f"{tier} bytes {comm[f'{tier}_bytes']} != "
                f"{comm[f'{tier}_events']} transfers x {vector:g} B"
            )
    return None


def ledger_transfers(comm: dict, expected: dict[str, int]) -> str | None:
    """Transfer events per tier equal the workload's closed form."""
    for tier, count in expected.items():
        if comm[f"{tier}_events"] != count:
            return f"{tier} transfers {comm[f'{tier}_events']} != {count} expected"
    return None


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x == y or (x is None and y is None) for x, y in zip(a, b)
    )


def same_history(history: dict, other: dict) -> str | None:
    """Bit-for-bit equality of every recorded series."""
    for series in HISTORY_SERIES:
        if not _same(history[series], other[series]):
            return f"{series} differs"
    return None


def resume_identity(history: dict, resumed: dict) -> str | None:
    """The run resumed from a checkpoint ends with the uninterrupted history."""
    failure = same_history(history, resumed)
    return None if failure is None else f"resumed history: {failure}"


def reference_outputs(history: dict, reference: dict) -> str | None:
    """Default seed only: final test loss and, if stored, the time axis."""
    loss = history["test_loss"][-1]
    expected = reference["final_test_loss"]
    if not math.isclose(loss, expected, rel_tol=1e-6, abs_tol=0.0):
        return f"final test loss {loss!r} != reference {expected!r} (rtol 1e-6)"
    times = reference.get("eval_times")
    if times is not None and not _same(history["eval_times"], times):
        return "eval_times differ from the reference"
    return None


def trace_complete(trace: dict) -> str | None:
    """The tracer kept every span record it finished."""
    if trace["dropped"] or trace["records"] != trace["spans_finished"]:
        return (
            f"tracer kept {trace['records']} of {trace['spans_finished']} "
            f"span records ({trace['dropped']} dropped)"
        )
    return None


def check_child(
    child: dict,
    *,
    floor: float | None,
    expected_resume_from: int,
    expected_transfers: dict[str, int] | None,
    reference: dict | None,
    baseline: dict | None,
) -> list[str]:
    """Every failure of one child record (empty when all checks pass).

    ``floor``, ``expected_transfers`` and ``reference`` are ``None``
    where they do not apply (smoke runs; workloads with faults; seeds
    other than the default).  ``baseline`` is the first child's history:
    every process of one seed must agree.
    """
    if child.get("error"):
        return [f"process failed: {child['error'].strip().splitlines()[-1]}"]
    history = child["history"]
    failures = [
        finite_losses(history),
        finite_losses(child["resumed_history"]),
        ledger_identity(child["ledger"]),
        resume_identity(history, child["resumed_history"]),
    ]
    if expected_transfers is not None:
        failures.append(ledger_transfers(child["ledger"]["comm"], expected_transfers))
        failure = ledger_transfers(child["ledger"]["resumed_comm"], expected_transfers)
        failures.append(None if failure is None else f"resumed ledger: {failure}")
    if child["resume_from"] != expected_resume_from:
        failures.append(
            f"resumed from iteration {child['resume_from']}, "
            f"expected {expected_resume_from}"
        )
    if floor is not None:
        failures.append(accuracy_floor(history, floor))
    if reference is not None:
        failures.append(reference_outputs(history, reference))
    if baseline is not None:
        failure = same_history(baseline, history)
        if failure is not None:
            failures.append(f"not deterministic across processes: {failure}")
    if child.get("trace") is not None:
        failures.append(trace_complete(child["trace"]))
    return [failure for failure in failures if failure is not None]


def failed_iterations(attempted: int, failures: list[str]) -> int:
    """A failed check fails every iteration the process attempted."""
    return attempted if failures else 0
