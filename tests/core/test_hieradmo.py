"""Tests for HierAdMo (Algorithm 1): invariants, reductions, equivalences."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedNAG, HierFAVG
from repro.core import HierAdMo, HierAdMoR

from tests.conftest import build_tiny_federation


class TestConstruction:
    def test_config_recorded(self, tiny_federation):
        algo = HierAdMo(tiny_federation, eta=0.02, gamma=0.4, tau=5, pi=3)
        history = algo.run(15, eval_every=15)
        assert history.config["gamma"] == 0.4
        assert history.config["tau"] == 5
        assert history.config["pi"] == 3
        assert history.config["adaptive"] is True

    def test_invalid_hyperparameters(self, tiny_federation):
        with pytest.raises(ValueError):
            HierAdMo(tiny_federation, gamma=1.0)
        with pytest.raises(ValueError):
            HierAdMo(tiny_federation, tau=0)
        with pytest.raises(ValueError):
            HierAdMo(tiny_federation, eta=-0.1)

    def test_hieradmo_r_is_non_adaptive(self, tiny_federation):
        algo = HierAdMoR(tiny_federation, gamma_edge=0.3)
        assert algo.adaptive is False
        assert algo.name == "HierAdMo-R"


class TestSynchronizationInvariants:
    def test_edge_workers_identical_after_edge_aggregation(
        self, tiny_federation
    ):
        algo = HierAdMo(tiny_federation, tau=4, pi=4)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 5):
            algo._step(t)
        # t=4 triggered an edge aggregation; workers 0,1 share edge 0.
        assert np.array_equal(algo.x[0], algo.x[1])
        assert np.array_equal(algo.y[0], algo.y[1])
        assert np.array_equal(algo.x[2], algo.x[3])
        # But the two edges differ (no cloud round yet).
        assert not np.array_equal(algo.x[0], algo.x[2])

    def test_all_workers_identical_after_cloud_aggregation(
        self, tiny_federation
    ):
        algo = HierAdMo(tiny_federation, tau=2, pi=2)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 5):
            algo._step(t)
        # t=4 = tau*pi: full synchronization.
        for worker in range(1, 4):
            assert np.array_equal(algo.x[0], algo.x[worker])
            assert np.array_equal(algo.y[0], algo.y[worker])
        # Edge states also synchronized (lines 20-21).
        assert np.array_equal(algo.edge_x_plus[0], algo.edge_x_plus[1])
        assert np.array_equal(algo.edge_y_minus[0], algo.edge_y_minus[1])

    def test_global_params_equals_cloud_model_at_sync(self, tiny_federation):
        algo = HierAdMo(tiny_federation, tau=2, pi=2)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 5):
            algo._step(t)
        assert np.allclose(algo._global_params(), algo.x[0])

    def test_gamma_trace_length(self, tiny_federation):
        algo = HierAdMo(tiny_federation, tau=5, pi=2)
        history = algo.run(30, eval_every=30)
        assert len(history.gamma_trace) == 6  # K = T / tau
        assert history.comm.worker_edge_rounds == 6
        assert history.comm.edge_cloud_rounds == 3  # P = T / (tau*pi)

    def test_gammas_within_bounds(self, tiny_federation):
        algo = HierAdMo(tiny_federation, tau=5, pi=2)
        history = algo.run(40, eval_every=40)
        for record in history.gamma_trace:
            for gamma in record.values():
                assert 0.0 <= gamma <= 0.99


class TestReductions:
    """Degenerate-parameter reductions to simpler published algorithms."""

    def test_hieradmo_r_single_edge_pi1_equals_fednag(
        self, federation_factory
    ):
        """L=1, π=1, γℓ=0 makes HierAdMo-R collapse to two-tier FedNAG.

        With one edge and no edge momentum, the edge aggregation *is* the
        global aggregation of FedNAG (models and momenta averaged and
        redistributed every τ).
        """
        fed_a = federation_factory(num_edges=1, workers_per_edge=4)
        fed_b = federation_factory(num_edges=1, workers_per_edge=4)

        hier = HierAdMoR(fed_a, eta=0.05, gamma=0.5, tau=4, pi=1,
                         gamma_edge=0.0)
        fednag = FedNAG(fed_b, eta=0.05, gamma=0.5, tau=4)
        h_a = hier.run(16, eval_every=4)
        h_b = fednag.run(16, eval_every=4)
        assert np.allclose(h_a.test_accuracy, h_b.test_accuracy)
        assert np.allclose(h_a.test_loss, h_b.test_loss, atol=1e-10)

    def test_gamma_zero_equals_hierfavg(self, federation_factory):
        """γ=0 and γℓ=0 turns HierAdMo-R into hierarchical FedAvg."""
        fed_a = federation_factory()
        fed_b = federation_factory()
        hier = HierAdMoR(fed_a, eta=0.05, gamma=0.0, tau=3, pi=2,
                         gamma_edge=0.0)
        favg = HierFAVG(fed_b, eta=0.05, tau=3, pi=2)
        h_a = hier.run(12, eval_every=3)
        h_b = favg.run(12, eval_every=3)
        assert np.allclose(h_a.test_loss, h_b.test_loss, atol=1e-10)

    def test_all_zero_momentum_single_edge_equals_fedavg(
        self, federation_factory
    ):
        fed_a = federation_factory(num_edges=1, workers_per_edge=4)
        fed_b = federation_factory(num_edges=1, workers_per_edge=4)
        hier = HierAdMoR(fed_a, eta=0.05, gamma=0.0, tau=4, pi=1,
                         gamma_edge=0.0)
        fedavg = FedAvg(fed_b, eta=0.05, tau=4)
        h_a = hier.run(12, eval_every=4)
        h_b = fedavg.run(12, eval_every=4)
        assert np.allclose(h_a.test_loss, h_b.test_loss, atol=1e-10)


class TestEquivalentUpdate:
    """Appendix-A equivalence: (y, x) NAG form == (v, x) momentum form."""

    def test_forms_coincide(self, tiny_federation):
        fed = tiny_federation
        algo = HierAdMo(fed, eta=0.05, gamma=0.6, tau=100, pi=1)
        algo.history = fed.new_history("x", {})
        algo._setup()

        # Independent replica in (v, x) form, fed identical gradients.
        import copy

        x = [algo.x[w].copy() for w in range(fed.num_workers)]
        v = [np.zeros(fed.dim) for _ in range(fed.num_workers)]

        # Snapshot the sample store so both forms see the same batches.
        store_snapshot = copy.deepcopy(fed.store)

        for t in range(1, 6):
            algo._step(t)
        paper_x = [value.copy() for value in algo.x]

        fed.store = store_snapshot
        for t in range(1, 6):
            for w in range(fed.num_workers):
                grad, _ = fed.gradient(w, x[w])
                v[w] = algo.gamma * v[w] - algo.eta * grad  # eq. (24)
                x[w] = x[w] + algo.gamma * v[w] - algo.eta * grad  # eq. (25)

        for w in range(fed.num_workers):
            assert np.allclose(paper_x[w], x[w], atol=1e-10)


class TestLearning:
    def test_hieradmo_learns(self, tiny_federation):
        history = HierAdMo(
            tiny_federation, eta=0.05, gamma=0.5, tau=5, pi=2
        ).run(100, eval_every=25)
        assert history.final_accuracy > 0.6
        assert history.final_accuracy > history.test_accuracy[0]

    def test_run_validates_arguments(self, tiny_federation):
        algo = HierAdMo(tiny_federation)
        with pytest.raises(ValueError):
            algo.run(0)
        with pytest.raises(ValueError):
            algo.run(10, eval_every=0)

    def test_t_zero_evaluated(self, tiny_federation):
        history = HierAdMo(tiny_federation).run(10, eval_every=5)
        assert history.iterations[0] == 0
        assert history.iterations[-1] == 10
