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
from repro.experiments import timing
from repro.simulation import EventDrivenSimulator

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

    def test_seconds_read_the_replay_clock(self, monkeypatch):
        """A run that first reaches the target at iteration t took the
        replay's ``iteration_times[t-1]``: its clock starts at the run
        start."""
        replays = {}

        class RecordingSimulator(EventDrivenSimulator):
            def simulate(self, *args, **kwargs):
                result = super().simulate(*args, **kwargs)
                replays[self.flat] = result
                return result

        monkeypatch.setattr(
            timing, "EventDrivenSimulator", RecordingSimulator
        )
        results = run_time_to_accuracy(
            ("HierAdMo", "FedAvg"), target=0.1, base_config=TINY
        )
        for name, flat in (("HierAdMo", False), ("FedAvg", True)):
            result = results[name]
            assert result.iteration > 0, name
            assert result.seconds == replays[flat].iteration_times[
                result.iteration - 1
            ], name

    def test_stragglers_move_only_the_clock(self):
        """Stragglers slow the replay; the training runs, their
        iterations to target and their bytes do not move."""
        names = ("HierAdMo", "FedAvg")
        healthy = run_time_to_accuracy(names, target=0.1, base_config=TINY)
        straggling = run_time_to_accuracy(
            names,
            target=0.1,
            base_config=TINY,
            straggler_probability=0.5,
        )
        for name in names:
            a, b = healthy[name], straggling[name]
            assert b.seconds > a.seconds, name
            assert b.iteration == a.iteration, name
            assert b.final_accuracy == a.final_accuracy, name
            assert b.worker_edge_bytes == a.worker_edge_bytes, name
            assert b.edge_cloud_bytes == a.edge_cloud_bytes, name

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

    def test_prices_each_run_by_its_class(self, monkeypatch):
        """A run replays on its own schedule and payload: three-tier runs
        close an edge round every τ and a cloud round every τ·π, two-tier
        runs replay flat (one group, whose every round is the cloud
        round) every τ·π, and every transfer carries the class's models
        (QuantizedHierFAVG trains three-tier; AsyncHierAdMo ships model
        and momentum)."""
        replays = []

        class RecordingSimulator(EventDrivenSimulator):
            def simulate(self, *args, **kwargs):
                result = super().simulate(*args, **kwargs)
                replays.append((self, result))
                return result

        monkeypatch.setattr(
            timing, "EventDrivenSimulator", RecordingSimulator
        )
        federation = build_federation(TINY)
        edges = federation.topology.num_edges
        model_bytes = federation.dim * 8.0
        steps, tau, pi = TINY.total_iterations, TINY.tau, TINY.pi
        for name, (flat, models) in self.PRICING.items():
            replays.clear()
            run_time_to_accuracy((name,), target=0.2, base_config=TINY)
            ((simulator, result),) = replays
            assert simulator.flat is flat, name
            assert simulator.deployment.quorum == 1.0, name
            assert simulator.deployment.payload_bytes == pytest.approx(
                model_bytes * models, rel=1e-12
            ), name
            cloud_rounds = steps // (tau * pi)
            if flat:
                assert {r.edge for r in result.edge_rounds} == {0}, name
                assert len(result.edge_rounds) == cloud_rounds, name
            else:
                assert len(result.edge_rounds) == edges * steps // tau, name
            assert len(result.cloud_rounds) == cloud_rounds, name


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
