"""Tests for the discrete-event simulator."""

import numpy as np
import pytest

from repro.simulation import (
    AsyncDeployment,
    add_stragglers,
    worker_device_pool,
)
from repro.simulation.events import EventDrivenSimulator
from repro.topology import Topology


def simulator(quorum=1.0, num_edges=2, workers_per_edge=2):
    topo = Topology.uniform(num_edges, workers_per_edge, 10)
    return EventDrivenSimulator(
        topo,
        AsyncDeployment(
            worker_device_pool(topo.num_workers), 1e5, quorum=quorum
        ),
    )


def straggler_simulator(quorum):
    """16 workers under 4 edges, 15% of steps stalled 10x."""
    topo = Topology.uniform(4, 4, 100)
    devices = add_stragglers(worker_device_pool(topo.num_workers), 0.15, 10.0)
    return EventDrivenSimulator(
        topo, AsyncDeployment(devices, 8e5, quorum=quorum)
    )


class TestStructure:
    def test_round_counts(self):
        result = simulator().simulate(40, tau=5, pi=2, rng=0)
        assert len(result.edge_rounds) == 8 * 2  # 8 rounds x 2 edges
        assert len(result.cloud_rounds) == 4

    def test_iteration_times_monotone(self):
        result = simulator().simulate(30, tau=5, pi=2, rng=0)
        times = result.iteration_times
        assert times.shape == (30,)
        assert (np.diff(times) > 0).all()

    @pytest.mark.parametrize("quorum", [1.0, 0.75, 0.5])
    def test_iteration_times_under_stragglers(self, quorum):
        """Finite and non-decreasing at any quorum; strictly increasing
        at quorum 1.0, where every worker runs every step once.  Below
        it a resynced worker can skip steps, so the curve can stall."""
        times = straggler_simulator(quorum).simulate(
            100, tau=10, pi=2, rng=1
        ).iteration_times
        assert times.shape == (100,)
        assert np.isfinite(times).all() and times[0] > 0
        assert (np.diff(times) >= 0).all()
        if quorum == 1.0:
            assert (np.diff(times) > 0).all()

    def test_total_time_positive(self):
        result = simulator().simulate(10, tau=5, pi=2, rng=0)
        assert result.total_time > 0
        assert result.total_time >= result.edge_rounds[-1].finish_time

    def test_deterministic(self):
        a = simulator().simulate(20, tau=5, pi=2, rng=3)
        b = simulator().simulate(20, tau=5, pi=2, rng=3)
        assert np.array_equal(a.iteration_times, b.iteration_times)
        assert a.total_time == b.total_time

    @pytest.mark.parametrize("quorum", [1.0, 0.5])
    def test_closing_iterations_wait_for_their_rounds(self, quorum):
        """Edge round r closes at iteration r·τ and cloud round k at
        k·τ·π; the clock there is no earlier than the round's finish.
        The tail round at T=22 is no round of the schedule."""
        result = simulator(quorum=quorum).simulate(22, tau=5, pi=2, rng=0)
        times = result.iteration_times
        tail = [r for r in result.edge_rounds if r.round_index == 5]
        assert len(tail) == 2
        for record in result.edge_rounds:
            if record.round_index < 5:
                assert times[record.round_index * 5 - 1] >= record.finish_time
        assert [r.round_index for r in result.cloud_rounds] == [1, 2]
        for record in result.cloud_rounds:
            assert times[record.round_index * 10 - 1] >= record.finish_time

    def test_flat_closing_iterations_wait_for_their_rounds(self):
        """A flat closure is the cloud round, closing at every multiple
        of τ (π is not used); the tail round at T=22 is not waited for."""
        topo = Topology.uniform(2, 2, 10)
        result = EventDrivenSimulator(
            topo, AsyncDeployment(worker_device_pool(4), 1e5), flat=True
        ).simulate(22, tau=5, pi=2, rng=0)
        times = result.iteration_times
        assert [r.round_index for r in result.cloud_rounds] == [
            1, 2, 3, 4, 5,
        ]
        for record in result.cloud_rounds[:-1]:
            assert times[record.round_index * 5 - 1] >= record.finish_time
        assert times[-1] < result.cloud_rounds[-1].finish_time

    def test_full_quorum_clock_ends_with_the_last_round(self):
        result = simulator().simulate(20, tau=5, pi=2, rng=0)
        assert result.iteration_times[-1] == result.total_time

    def test_partial_final_interval(self):
        """T not divisible by tau: the tail interval still aggregates."""
        result = simulator().simulate(12, tau=5, pi=2, rng=0)
        assert result.iteration_times.shape == (12,)
        assert len(result.edge_rounds) == 3 * 2


class TestQuorumSemantics:
    def test_full_quorum_includes_everyone(self):
        result = simulator(quorum=1.0).simulate(10, tau=5, pi=2, rng=0)
        for record in result.edge_rounds:
            assert not record.workers_late
            assert len(record.workers_included) == 2

    def test_half_quorum_leaves_stragglers_late(self):
        result = simulator(quorum=0.5).simulate(10, tau=5, pi=2, rng=0)
        for record in result.edge_rounds:
            assert len(record.workers_included) == 1
            assert len(record.workers_late) == 1

    def test_late_uploads_fold_into_a_later_round(self):
        """A late upload is buffered, not dropped: a later round of the
        same edge folds it in as stale."""
        result = simulator(quorum=0.5).simulate(40, tau=5, pi=2, rng=0)
        folded = [r for r in result.edge_rounds if r.workers_stale]
        assert folded
        for record in folded:
            late_before = {
                w
                for r in result.edge_rounds
                if r.edge == record.edge and r.round_index < record.round_index
                for w in r.workers_late
            }
            assert set(record.workers_stale) <= late_before
            assert not set(record.workers_stale) & set(
                record.workers_included
            )

    def test_quorum_speeds_up_rounds(self):
        full = simulator(quorum=1.0).simulate(40, tau=5, pi=2, rng=1)
        partial = simulator(quorum=0.5).simulate(40, tau=5, pi=2, rng=1)
        assert partial.total_time < full.total_time

    def test_invalid_quorum(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            simulator(quorum=0.0)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            simulator(quorum=1.5)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            simulator(quorum=-0.1)

    def test_cloud_records_late_uploads(self):
        """Late workers' uploads land on the cloud record (regression:
        they once vanished with no trace at the cloud tier)."""
        partial = simulator(quorum=0.5).simulate(40, tau=5, pi=2, rng=0)
        recorded = set()
        for cloud in partial.cloud_rounds:
            assert cloud.edges_included == (0, 1)
            recorded.update(cloud.stale_uploads)
        late = {w for r in partial.edge_rounds for w in r.workers_late}
        assert recorded == late
        assert recorded  # half quorum always leaves someone behind

    def test_full_quorum_has_no_stale_uploads(self):
        result = simulator(quorum=1.0).simulate(40, tau=5, pi=2, rng=0)
        for cloud in result.cloud_rounds:
            assert cloud.stale_uploads == ()


class TestPhysicalConsistency:
    def test_edge_rounds_ordered_in_time(self):
        result = simulator().simulate(30, tau=5, pi=2, rng=2)
        per_edge = {}
        for record in result.edge_rounds:
            per_edge.setdefault(record.edge, []).append(record.finish_time)
        for times in per_edge.values():
            assert times == sorted(times)

    def test_cloud_round_after_its_edge_rounds(self):
        result = simulator().simulate(20, tau=5, pi=2, rng=2)
        for cloud in result.cloud_rounds:
            feeding = [
                record
                for record in result.edge_rounds
                if record.round_index == cloud.round_index * 2
            ]
            assert all(
                cloud.start_time >= record.finish_time for record in feeding
            )

    def test_aggregation_start_is_last_included_arrival(self):
        result = simulator().simulate(10, tau=5, pi=2, rng=4)
        for record in result.edge_rounds:
            assert record.finish_time > record.start_time

    def test_device_mismatch_raises(self):
        topo = Topology.uniform(2, 2, 10)
        with pytest.raises(ValueError):
            EventDrivenSimulator(
                topo, AsyncDeployment(worker_device_pool(3), 1e5)
            )
