"""One-shot reproduction report.

``generate_report`` runs a configurable slice of the paper's artifacts
and renders a markdown report with the measured numbers next to the
paper's qualitative claims — the CLI's ``report`` command.  The record
in EXPERIMENTS.md comes from the claim benches (``benchmarks/``), not
from this module.

Two scales are built in:

* ``quick``  — logistic-regression workloads, a couple of minutes,
* ``full``   — adds the CNN workloads (tens of minutes on a laptop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.adaptive import best_fixed_gamma, run_adaptive_comparison
from repro.experiments.config import ExperimentConfig
from repro.experiments.noniid import NONIID_ALGORITHMS, run_noniid_sweep
from repro.experiments.runner import format_results_table
from repro.experiments.table2 import TABLE2_ALGORITHMS, run_table2_column
from repro.experiments.timing import run_time_to_accuracy
from repro.telemetry import format_bytes
from repro.theory import (
    adaptive_gamma_moments,
    fixed_gamma_moments,
    theorem5_gap_ratio,
)

__all__ = ["ReportScale", "generate_report"]


@dataclass(frozen=True)
class ReportScale:
    """Knobs controlling how much compute the report spends."""

    name: str
    combos: tuple[str, ...]
    iterations: int
    samples: int
    timing_target: float = 0.9
    adaptive_gammas: tuple[float, ...] = (0.3, 0.6, 0.9)
    noniid_levels: tuple[int, ...] = (3, 6, 9)


QUICK = ReportScale(
    name="quick",
    combos=("Linear/MNIST", "Logistic/MNIST"),
    iterations=250,
    samples=1600,
)
FULL = ReportScale(
    name="full",
    combos=(
        "Linear/MNIST", "Logistic/MNIST", "CNN/MNIST", "CNN/CIFAR10",
        "CNN/UCI-HAR",
    ),
    iterations=300,
    samples=1600,
)
SCALES = {"quick": QUICK, "full": FULL}


def _base_config(scale: ReportScale) -> ExperimentConfig:
    return ExperimentConfig(
        num_samples=scale.samples,
        total_iterations=scale.iterations,
        eval_every=max(scale.iterations // 5, 1),
        seed=1,
    )


def _section_table2(scale: ReportScale, lines: list[str]) -> None:
    lines.append("## Table II (accuracy per algorithm)\n")
    table: dict[str, dict[str, float]] = {
        name: {} for name in TABLE2_ALGORITHMS
    }
    for combo in scale.combos:
        column = run_table2_column(combo, base_config=_base_config(scale))
        for name, accuracy in column.items():
            table[name][combo] = accuracy
    lines.append("```")
    lines.append(
        format_results_table(
            table, row_order=list(TABLE2_ALGORITHMS), value_format="{:.4f}"
        )
    )
    lines.append("```\n")
    winners = {
        combo: max(table, key=lambda name: table[name][combo])
        for combo in scale.combos
    }
    lines.append(
        "Winners per column: "
        + ", ".join(f"{combo}: **{name}**" for combo, name in winners.items())
        + "\n"
    )


def _section_noniid(scale: ReportScale, lines: list[str]) -> None:
    lines.append("## Fig. 2(e-g): x-class non-i.i.d. levels\n")
    sweep = run_noniid_sweep(
        scale.noniid_levels,
        algorithms=NONIID_ALGORITHMS,
        base_config=_base_config(scale).with_overrides(model="logistic"),
    )
    table = {
        name: {
            f"x={x}": sweep[x][name].final_accuracy
            for x in sorted(sweep)
        }
        for name in NONIID_ALGORITHMS
    }
    lines.append("```")
    lines.append(format_results_table(table, value_format="{:.3f}"))
    lines.append("```\n")


def _section_adaptive(scale: ReportScale, lines: list[str]) -> None:
    lines.append("## Fig. 2(i-k): adaptive vs fixed edge momentum\n")
    for gamma in scale.adaptive_gammas:
        results = run_adaptive_comparison(
            gamma,
            base_config=_base_config(scale).with_overrides(model="logistic"),
        )
        best, best_accuracy = best_fixed_gamma(results)
        lines.append(
            f"* γ = {gamma}: adaptive {results['adaptive']:.3f}, "
            f"best fixed γℓ = {best} at {best_accuracy:.3f} "
            f"(gap {best_accuracy - results['adaptive']:+.3f})"
        )
    lines.append("")


def _section_timing(scale: ReportScale, lines: list[str]) -> None:
    lines.append(
        f"## Fig. 2(h): simulated time to {scale.timing_target} accuracy\n"
    )
    results = run_time_to_accuracy(
        ("HierAdMo", "HierAdMo-R", "HierFAVG", "FastSlowMo", "FedNAG",
         "FedAvg"),
        target=scale.timing_target,
        base_config=_base_config(scale).with_overrides(
            model="logistic", eta=0.02, eval_every=10
        ),
    )
    reference = results["HierAdMo"].seconds
    for name, result in results.items():
        traffic = format_bytes(
            result.worker_edge_bytes + result.edge_cloud_bytes
        )
        if result.seconds is None:
            lines.append(
                f"* {name}: never reached the target ({traffic} moved)"
            )
        elif name == "HierAdMo" or not reference:
            lines.append(f"* {name}: {result.seconds:.1f}s ({traffic} moved)")
        else:
            lines.append(
                f"* {name}: {result.seconds:.1f}s "
                f"({result.seconds / reference:.2f}x HierAdMo, "
                f"{traffic} moved)"
            )
    lines.append("")


def _section_theory(lines: list[str]) -> None:
    lines.append("## Theorem 5: expectation analysis\n")
    adaptive_mean, adaptive_var = adaptive_gamma_moments()
    fixed_mean, fixed_var = fixed_gamma_moments()
    lines.append(
        f"* E[γℓ adaptive] = {adaptive_mean:.4f} (paper: 1/4), "
        f"Var = {adaptive_var:.4f} (paper: 5/48)"
    )
    lines.append(
        f"* E[γℓ fixed] = {fixed_mean:.4f} (paper: 1/2), "
        f"Var = {fixed_var:.4f} (paper: 1/12)"
    )
    lines.append(
        f"* bound-gap ratio adaptive/fixed = {theorem5_gap_ratio():.3f} < 1\n"
    )


def generate_report(
    out_path: str | Path | None = None,
    *,
    scale: str = "quick",
    sections: tuple[str, ...] = (
        "table2", "noniid", "adaptive", "timing", "theory",
    ),
) -> str:
    """Run the selected artifact sections and render markdown.

    Returns the report text; writes it to ``out_path`` when given.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    scale_config = SCALES[scale]
    known = {"table2", "noniid", "adaptive", "timing", "theory"}
    unknown = set(sections) - known
    if unknown:
        raise ValueError(f"unknown sections: {sorted(unknown)}")

    lines: list[str] = [
        "# HierAdMo reproduction report",
        f"\nScale: `{scale}` — synthetic corpora, CPU-sized T; see "
        "DESIGN.md for the substitution notes.\n",
    ]
    if "table2" in sections:
        _section_table2(scale_config, lines)
    if "noniid" in sections:
        _section_noniid(scale_config, lines)
    if "adaptive" in sections:
        _section_adaptive(scale_config, lines)
    if "timing" in sections:
        _section_timing(scale_config, lines)
    if "theory" in sections:
        _section_theory(lines)

    text = "\n".join(lines)
    if out_path is not None:
        Path(out_path).write_text(text, encoding="utf-8")
    return text
