"""Fig. 2 (e)–(g): accuracy under x-class non-i.i.d. data.

The paper assigns each worker exactly x ∈ {3, 6, 9} of the 10 classes
(smaller x = stronger heterogeneity) and shows every algorithm degrades
as x shrinks while HierAdMo stays on top.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_many
from repro.metrics.history import TrainingHistory

__all__ = ["NONIID_ALGORITHMS", "run_noniid_sweep"]

# The subset the paper plots in Fig. 2(e–g).
NONIID_ALGORITHMS = (
    "HierAdMo",
    "HierAdMo-R",
    "HierFAVG",
    "FastSlowMo",
    "FedNAG",
    "FedAvg",
)


def run_noniid_sweep(
    x_classes: tuple[int, ...] = (3, 6, 9),
    *,
    algorithms: tuple[str, ...] = NONIID_ALGORITHMS,
    base_config: ExperimentConfig | None = None,
) -> dict[int, dict[str, TrainingHistory]]:
    """{x -> {algorithm -> history}} for each heterogeneity level."""
    if base_config is None:
        base_config = ExperimentConfig(
            dataset="mnist",
            model="cnn",
            scheme="xclass",
            total_iterations=240,
        )
    out: dict[int, dict[str, TrainingHistory]] = {}
    for x in x_classes:
        config = base_config.with_overrides(classes_per_worker=x)
        out[x] = run_many(algorithms, config)
    return out

