"""Tests for the three-tier baselines HierFAVG and CFL."""

import numpy as np
import pytest

from repro.algorithms import CFL, FedAvg, HierFAVG
from repro.faults import FaultPlan

from tests.conftest import build_tiny_federation


class TestHierFAVG:
    def test_edge_sync_invariant(self, tiny_federation):
        algo = HierFAVG(tiny_federation, eta=0.05, tau=3, pi=2)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 4):
            algo._step(t)
        assert np.array_equal(algo.x[0], algo.x[1])
        assert np.array_equal(algo.x[2], algo.x[3])
        assert not np.array_equal(algo.x[0], algo.x[2])

    def test_cloud_sync_invariant(self, tiny_federation):
        algo = HierFAVG(tiny_federation, eta=0.05, tau=2, pi=2)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 5):
            algo._step(t)
        for worker in range(1, 4):
            assert np.array_equal(algo.x[0], algo.x[worker])

    def test_single_edge_equals_fedavg(self, federation_factory):
        """With L=1 the hierarchy is vacuous: HierFAVG == FedAvg."""
        a = HierFAVG(
            federation_factory(num_edges=1, workers_per_edge=4),
            eta=0.05, tau=4, pi=2,
        ).run(16, eval_every=4)
        b = FedAvg(
            federation_factory(num_edges=1, workers_per_edge=4),
            eta=0.05, tau=4,
        ).run(16, eval_every=4)
        assert np.allclose(a.test_loss, b.test_loss, atol=1e-10)

    def test_round_counters(self, tiny_federation):
        history = HierFAVG(tiny_federation, eta=0.05, tau=5, pi=2).run(
            20, eval_every=20
        )
        assert history.comm.worker_edge_rounds == 4
        assert history.comm.edge_cloud_rounds == 2

    def test_learns(self, tiny_federation):
        history = HierFAVG(tiny_federation, eta=0.05, tau=5, pi=2).run(
            80, eval_every=20
        )
        assert history.final_accuracy > 0.5


class TestCFL:
    def test_learns(self, tiny_federation):
        history = CFL(tiny_federation, eta=0.05, tau=5, pi=2).run(
            80, eval_every=20
        )
        assert history.final_accuracy > 0.5

    def test_cloud_does_not_broadcast_to_workers(self, tiny_federation):
        """The resource-saving property: workers keep their edge models
        through the cloud round and only converge at the next edge round."""
        algo = CFL(tiny_federation, eta=0.05, tau=2, pi=1)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 3):
            algo._step(t)
        # t=2 ran an edge round then a cloud round.  Workers in different
        # edges still hold different models (no cloud->worker broadcast)...
        assert not np.array_equal(algo.x[0], algo.x[2])
        # ...but the edge-stored models are synchronized.
        assert np.array_equal(algo.edge_models[0], algo.edge_models[1])
        assert all(algo._cloud_pending)

    def test_cloud_info_reaches_workers_next_edge_round(
        self, tiny_federation
    ):
        algo = CFL(tiny_federation, eta=0.05, tau=2, pi=2)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 7):
            algo._step(t)
        # Cloud round at t=4 set pending; the edge round at t=6 blended it
        # (and no new cloud round has fired yet).
        assert not any(algo._cloud_pending)

    def test_cloud_pending_only_on_receiving_edges(self, tiny_federation):
        """An edge that missed the cloud round has no cloud model to fold.

        Edge 0 is dark in interval 2, so the t=4 cloud round reaches
        edge 1 only; edge 0's next edge round must not blend its own
        stale edge model in as if it were the cloud's.
        """
        algo = CFL(tiny_federation, eta=0.05, tau=2, pi=2)
        algo.attach_faults(FaultPlan(scripted_edge_down=((0, 2, 2),)))
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 5):
            algo._step(t)
        assert algo._cloud_pending == [False, True]
        algo._step(5)
        # The t=6 edge round stores edge 0's plain worker average.
        rows = algo._iteration_rows()
        algo._gradient_iteration(rows)
        algo._local_update(rows)
        fresh = tiny_federation.worker_w_in_edge[0] @ algo.x[0:2]
        algo._aggregate(6)
        assert np.array_equal(algo.edge_models[0], fresh)
        assert not any(algo._cloud_pending)

    def test_comm_rounds_match_hierfavg(self, tiny_federation):
        history = CFL(tiny_federation, eta=0.05, tau=5, pi=2).run(
            20, eval_every=20
        )
        assert history.comm.worker_edge_rounds == 4
        assert history.comm.edge_cloud_rounds == 2


class TestHierarchyBenefit:
    def test_three_tier_beats_two_tier_under_noniid(self, federation_factory):
        """The paper's ② > ④: edge aggregation mitigates heterogeneity.

        Fair comparison: HierFAVG (τ, π) vs FedAvg with τ₂ = τ·π.
        """
        hier = HierFAVG(federation_factory(), eta=0.02, tau=5, pi=4).run(
            200, eval_every=200
        )
        flat = FedAvg(federation_factory(), eta=0.02, tau=20).run(
            200, eval_every=200
        )
        assert hier.final_accuracy >= flat.final_accuracy - 0.02
