"""Tests for the grid-sweep utility."""

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.grid import format_grid, run_grid

TINY = ExperimentConfig(
    model="logistic", num_samples=300, total_iterations=6, tau=2, pi=2,
    eval_every=6,
)


class TestRunGrid:
    def test_cartesian_size(self):
        results = run_grid(
            ("FedAvg",),
            {"eta": [0.01, 0.05], "tau": [2, 3]},
            base_config=TINY,
        )
        assert len(results) == 4
        seen = {row.overrides for row in results}
        assert len(seen) == 4

    def test_multiple_algorithms(self):
        results = run_grid(
            ("FedAvg", "HierAdMo"), {"eta": [0.02]}, base_config=TINY
        )
        assert {row.algorithm for row in results} == {"FedAvg", "HierAdMo"}

    def test_invalid_field_fails_fast(self):
        with pytest.raises(TypeError):
            run_grid(("FedAvg",), {"learning": [0.1]}, base_config=TINY)

    def test_invalid_value_fails(self):
        with pytest.raises(ValueError):
            run_grid(("FedAvg",), {"eta": [-1.0]}, base_config=TINY)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_grid((), {"eta": [0.1]}, base_config=TINY)
        with pytest.raises(ValueError):
            run_grid(("FedAvg",), {}, base_config=TINY)


class TestFormatGrid:
    def test_sorted_by_accuracy(self):
        results = run_grid(
            ("FedAvg",), {"eta": [0.001, 0.05]}, base_config=TINY
        )
        text = format_grid(results)
        lines = text.split("\n")[1:]
        finals = [float(line.split()[-2]) for line in lines]
        assert finals == sorted(finals, reverse=True)

    def test_empty(self):
        assert format_grid([]) == "(no results)"
