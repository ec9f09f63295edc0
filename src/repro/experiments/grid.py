"""Generic hyper-parameter grid sweeps.

Runs the cartesian product of config overrides for one or more
algorithms — the tool behind "effects of hyper-parameters" studies
beyond the specific sweeps the paper plots (e.g. η × γ, batch size,
topology shape).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.metrics.history import TrainingHistory

__all__ = ["GridResult", "run_grid", "format_grid"]


@dataclass(frozen=True)
class GridResult:
    """One grid cell's outcome."""

    algorithm: str
    overrides: tuple[tuple[str, object], ...]
    final_accuracy: float
    best_accuracy: float


def run_grid(
    algorithms: tuple[str, ...],
    param_grid: dict[str, list],
    *,
    base_config: ExperimentConfig | None = None,
) -> list[GridResult]:
    """Run every (algorithm × grid point) combination.

    ``param_grid`` maps :class:`ExperimentConfig` field names to value
    lists; invalid field names fail fast on the first combination.
    """
    if not algorithms:
        raise ValueError("no algorithms given")
    if not param_grid:
        raise ValueError("empty parameter grid")
    base = base_config if base_config is not None else ExperimentConfig()

    names = sorted(param_grid)
    results: list[GridResult] = []
    for values in itertools.product(*(param_grid[name] for name in names)):
        overrides = dict(zip(names, values))
        config = base.with_overrides(**overrides)
        for algorithm in algorithms:
            history: TrainingHistory = run_single(algorithm, config)
            results.append(
                GridResult(
                    algorithm=algorithm,
                    overrides=tuple(sorted(overrides.items())),
                    final_accuracy=history.final_accuracy,
                    best_accuracy=history.best_accuracy,
                )
            )
    return results


def format_grid(results: list[GridResult]) -> str:
    """Aligned text table, best final accuracy first."""
    if not results:
        return "(no results)"
    rows = sorted(results, key=lambda r: -r.final_accuracy)
    override_text = [
        ", ".join(f"{k}={v}" for k, v in row.overrides) for row in rows
    ]
    name_width = max(len(row.algorithm) for row in rows) + 2
    override_width = max(len(text) for text in override_text) + 2
    lines = [
        "algorithm".ljust(name_width)
        + "overrides".ljust(override_width)
        + "   final    best"
    ]
    for row, text in zip(rows, override_text):
        lines.append(
            row.algorithm.ljust(name_width)
            + text.ljust(override_width)
            + f"  {row.final_accuracy:.4f}  {row.best_accuracy:.4f}"
        )
    return "\n".join(lines)
