"""Experiment runners for every table and figure in the paper."""

from repro.experiments.adaptive import best_fixed_gamma, run_adaptive_comparison
from repro.experiments.builders import (
    build_algorithm,
    build_datasets,
    build_federation,
    build_model,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import GridResult, format_grid, run_grid
from repro.experiments.noniid import (
    NONIID_ALGORITHMS,
    run_noniid_sweep,
)
from repro.experiments.replication import (
    ReplicatedResult,
    format_replicated,
    run_replicated,
)
from repro.experiments.report import ReportScale, generate_report
from repro.experiments.runner import (
    format_results_table,
    run_many,
    run_single,
)
from repro.experiments.sweeps import (
    fig2_sweep_config,
    run_fixed_product_sweep,
    run_pi_sweep,
    run_tau_sweep,
)
from repro.experiments.table2 import (
    TABLE2_ALGORITHMS,
    TABLE2_COMBOS,
    run_table2_column,
)
from repro.experiments.timing import TimedResult, run_time_to_accuracy

__all__ = [
    "ExperimentConfig",
    "build_federation",
    "build_datasets",
    "build_model",
    "build_algorithm",
    "run_single",
    "run_many",
    "format_results_table",
    "TABLE2_COMBOS",
    "TABLE2_ALGORITHMS",
    "run_table2_column",
    "fig2_sweep_config",
    "run_tau_sweep",
    "run_pi_sweep",
    "run_fixed_product_sweep",
    "NONIID_ALGORITHMS",
    "run_noniid_sweep",
    "run_adaptive_comparison",
    "best_fixed_gamma",
    "TimedResult",
    "run_time_to_accuracy",
    "generate_report",
    "ReportScale",
    "GridResult",
    "run_grid",
    "format_grid",
    "ReplicatedResult",
    "run_replicated",
    "format_replicated",
]
