"""Tests for the table/figure experiment runners (tiny configurations)."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    best_fixed_gamma,
    build_federation,
    fig2_sweep_config,
    format_results_table,
    run_adaptive_comparison,
    run_fixed_product_sweep,
    run_many,
    run_noniid_sweep,
    run_pi_sweep,
    run_single,
    run_table2_column,
    run_tau_sweep,
    run_time_to_accuracy,
)
from repro.telemetry import tracing

TINY = ExperimentConfig(
    model="logistic",
    num_samples=300,
    total_iterations=12,
    tau=2,
    pi=2,
    eval_every=6,
)


class TestRunSingle:
    def test_returns_history(self):
        history = run_single("HierAdMo", TINY)
        assert history.algorithm == "HierAdMo"
        assert history.iterations[-1] == 12

    def test_reproducible(self):
        a = run_single("FedAvg", TINY)
        b = run_single("FedAvg", TINY)
        assert a.test_accuracy == b.test_accuracy

    def test_run_many_same_federation_seed(self):
        histories = run_many(("HierAdMo", "FedAvg"), TINY)
        assert set(histories) == {"HierAdMo", "FedAvg"}
        # Both start from the same initial model => same t=0 accuracy.
        assert (
            histories["HierAdMo"].test_accuracy[0]
            == histories["FedAvg"].test_accuracy[0]
        )


class TestTable2:
    def test_column_runs(self):
        column = run_table2_column(
            "Logistic/MNIST",
            algorithms=("HierAdMo", "FedAvg"),
            base_config=TINY,
        )
        assert set(column) == {"HierAdMo", "FedAvg"}
        assert all(0 <= v <= 1 for v in column.values())

    def test_unknown_combo_raises(self):
        with pytest.raises(ValueError, match="unknown combo"):
            run_table2_column("CNN/SVHN", base_config=TINY)


class TestSweeps:
    def test_tau_sweep_keys(self):
        out = run_tau_sweep(
            (2, 4), pi=2, base_config=fig2_sweep_config(
                num_samples=400, total_iterations=8, num_edges=2,
                workers_per_edge=2, model="logistic", eval_every=8,
                classes_per_worker=5,
            )
        )
        assert set(out) == {2, 4}

    def test_pi_sweep_keys(self):
        out = run_pi_sweep(
            (1, 2), tau=2, base_config=fig2_sweep_config(
                num_samples=400, total_iterations=8, num_edges=2,
                workers_per_edge=2, model="logistic", eval_every=8,
                classes_per_worker=5,
            )
        )
        assert set(out) == {1, 2}

    def test_fixed_product_requires_constant_product(self):
        with pytest.raises(ValueError, match="share one product"):
            run_fixed_product_sweep(((2, 2), (2, 4)), base_config=TINY)


class TestNonIid:
    def test_sweep_structure(self):
        out = run_noniid_sweep(
            (3, 9),
            algorithms=("HierAdMo", "FedAvg"),
            base_config=TINY,
        )
        assert set(out) == {3, 9}
        assert set(out[3]) == {"HierAdMo", "FedAvg"}


class TestAdaptive:
    def test_comparison_structure(self):
        results = run_adaptive_comparison(
            0.5, fixed_grid=(0.2, 0.8), base_config=TINY
        )
        assert "adaptive" in results
        assert "fixed:0.2" in results
        best, accuracy = best_fixed_gamma(results)
        assert best in (0.2, 0.8)
        assert accuracy == results[f"fixed:{best:.1f}"]

    def test_best_fixed_requires_fixed_entries(self):
        with pytest.raises(ValueError):
            best_fixed_gamma({"adaptive": 0.9})


class TestTiming:
    def test_structure(self):
        results = run_time_to_accuracy(
            ("HierAdMo", "FedAvg"),
            target=0.2,
            base_config=TINY,
        )
        assert set(results) == {"HierAdMo", "FedAvg"}
        for result in results.values():
            assert result.final_accuracy >= 0
            if result.seconds is not None:
                assert result.seconds > 0

    def test_unreachable_target_gives_none(self):
        results = run_time_to_accuracy(
            ("FedAvg",), target=1.01, base_config=TINY
        )
        assert results["FedAvg"].seconds is None

    # name -> (replayed flat, models shipped per transfer)
    PRICING = {
        "HierAdMo": (False, 2.0),
        "HierAdMo-R": (False, 2.0),
        "HierFAVG": (False, 1.0),
        "CFL": (False, 1.0),
        "QuantizedHierFAVG": (False, 1.0),
        "AsyncHierAdMo": (False, 2.0),
        "FedAvg": (True, 1.0),
        "FedNAG": (True, 2.0),
        "FedMom": (True, 1.0),
        "SlowMo": (True, 1.0),
        "FastSlowMo": (True, 2.0),
        "FedADC": (True, 2.0),
        "Mime": (True, 2.0),
        "FedProx": (True, 1.0),
        "SampledFedAvg": (True, 1.0),
        "AsyncFedAvg": (True, 1.0),
    }

    def test_prices_each_run_by_its_class(self):
        """A run replays on its own schedule and payload: three-tier
        runs sync with the edge every τ and the cloud every τ·π, two-tier
        runs sync with the cloud every τ·π, and every transfer carries
        the class's models (QuantizedHierFAVG trains three-tier;
        AsyncHierAdMo ships model and momentum)."""
        federation = build_federation(TINY)
        workers = federation.topology.num_workers
        edges = federation.topology.num_edges
        model_bytes = federation.dim * 8.0
        steps, tau, pi = TINY.total_iterations, TINY.tau, TINY.pi
        for name, (flat, models) in self.PRICING.items():
            with tracing() as tracer:
                run_time_to_accuracy((name,), target=0.2, base_config=TINY)
            counters = tracer.counters
            if flat:
                rounds = steps // (tau * pi)
                assert counters["sim.two_tier.rounds"] == rounds, name
                assert "sim.three_tier.bytes" not in counters, name
                transfers = 2 * rounds * workers
                billed = counters["sim.two_tier.bytes"]
            else:
                edge_rounds, cloud_rounds = steps // tau, steps // (tau * pi)
                assert (
                    counters["sim.three_tier.edge_rounds"] == edge_rounds
                ), name
                assert (
                    counters["sim.three_tier.cloud_rounds"] == cloud_rounds
                ), name
                assert "sim.two_tier.bytes" not in counters, name
                transfers = 2 * (edge_rounds * workers + cloud_rounds * edges)
                billed = counters["sim.three_tier.bytes"]
            assert billed == pytest.approx(
                model_bytes * models * transfers, rel=1e-12
            ), name


class TestFormatting:
    def test_table_rendering(self):
        text = format_results_table(
            {"algo-a": {"c1": 0.5, "c2": 0.25}, "algo-b": {"c1": None, "c2": 1.0}},
            title="demo",
        )
        assert "demo" in text
        assert "algo-a" in text
        assert "--" in text  # None rendered as --
        assert "0.50" in text

    def test_empty(self):
        assert format_results_table({}) == "(no results)"
