"""End-to-end communication accounting on real training runs."""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.algorithms import FedAvg, FedNAG, HierFAVG
from repro.core import HierAdMo

pytestmark = pytest.mark.telemetry


class TestHierAdMoAccounting:
    def test_events_match_schedule_closed_form(self, tiny_federation):
        fed = tiny_federation
        algo = HierAdMo(fed, eta=0.05, tau=3, pi=2)
        history = algo.run(12, eval_every=6)

        edge_rounds = 12 // 3  # t = 3, 6, 9, 12
        cloud_rounds = 12 // 6  # t = 6, 12
        # Each edge round: every worker uploads and downloads; each cloud
        # round additionally pushes the merged state down to workers.
        expected_worker_edge = (
            edge_rounds * 2 * fed.num_workers
            + cloud_rounds * fed.num_workers
        )
        expected_edge_cloud = cloud_rounds * 2 * fed.num_edges

        comm = history.comm
        assert comm.worker_edge_rounds == edge_rounds
        assert comm.edge_cloud_rounds == cloud_rounds
        assert comm.worker_edge_events == expected_worker_edge
        assert comm.edge_cloud_events == expected_edge_cloud

        # The acceptance identity: bytes == events x dim x 8 x multiplier.
        vector = fed.dim * 8 * HierAdMo.payload_multiplier
        assert comm.worker_edge_bytes == expected_worker_edge * vector
        assert comm.edge_cloud_bytes == expected_edge_cloud * vector
        assert comm.total_bytes == (
            (expected_worker_edge + expected_edge_cloud) * vector
        )

    def test_traced_run_attaches_summary(self, tiny_federation):
        algo = HierAdMo(tiny_federation, eta=0.05, tau=3, pi=2)
        with telemetry.tracing():
            history = algo.run(6, eval_every=6)
        summary = history.trace_summary
        assert summary is not None
        assert summary["spans"]["worker_step"]["count"] == 6
        assert summary["spans"]["edge_agg"]["count"] == 2
        assert summary["spans"]["cloud_agg"]["count"] == 1

    def test_untraced_run_has_no_summary(self, tiny_federation):
        algo = HierAdMo(tiny_federation, eta=0.05, tau=3, pi=2)
        history = algo.run(3, eval_every=3)
        assert history.trace_summary is None


class TestBaselineAccounting:
    def test_hierfavg_counts_both_tiers(self, tiny_federation):
        fed = tiny_federation
        algo = HierFAVG(fed, eta=0.05, tau=3, pi=2)
        history = algo.run(12, eval_every=6)
        comm = history.comm
        assert comm.worker_edge_rounds == 4
        assert comm.edge_cloud_rounds == 2
        # 4 edge rounds x 2N transfers + 2 cloud broadcasts x N workers.
        assert comm.worker_edge_events == 4 * 2 * 4 + 2 * 4
        assert comm.edge_cloud_events == 2 * 2 * fed.num_edges
        assert comm.payload_multiplier == 1.0

    def test_two_tier_pays_cloud_only(self, tiny_federation):
        fed = tiny_federation
        algo = FedAvg(fed, eta=0.05, tau=4)
        history = algo.run(12, eval_every=6)
        comm = history.comm
        assert comm.worker_edge_events == 0
        assert comm.edge_cloud_rounds == 3  # t = 4, 8, 12
        assert comm.edge_cloud_events == 3 * 2 * fed.num_workers
        assert comm.total_bytes == comm.edge_cloud_events * fed.dim * 8

    def test_momentum_shipper_doubles_bytes(self, federation_factory):
        plain = FedAvg(federation_factory(), eta=0.05, tau=4)
        momentum = FedNAG(federation_factory(), eta=0.05, tau=4)
        plain_history = plain.run(8, eval_every=8)
        momentum_history = momentum.run(8, eval_every=8)
        assert (
            plain_history.comm.edge_cloud_events
            == momentum_history.comm.edge_cloud_events
        )
        assert (
            momentum_history.comm.total_bytes
            == 2 * plain_history.comm.total_bytes
        )
