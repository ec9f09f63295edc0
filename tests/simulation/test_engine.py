"""Tests for the event-driven execution engine (queue + runner)."""

import numpy as np
import pytest

from repro.simulation import AsyncDeployment, worker_device_pool
from repro.simulation.engine import (
    EVENT_CLOUD_SYNC,
    EVENT_QUORUM_MET,
    EVENT_UPLOAD_ARRIVED,
    EVENT_WORKER_STEP,
    EventLoopRunner,
    EventQueue,
)

pytestmark = pytest.mark.eventsim


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(2.0, EVENT_QUORUM_MET, group=0)
        queue.push(0.5, EVENT_WORKER_STEP, worker=1)
        queue.push(1.0, EVENT_UPLOAD_ARRIVED, worker=0)
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == [
            EVENT_WORKER_STEP,
            EVENT_UPLOAD_ARRIVED,
            EVENT_QUORUM_MET,
        ]

    def test_fifo_tiebreak_at_equal_time(self):
        queue = EventQueue()
        for worker in range(5):
            queue.push(1.0, EVENT_WORKER_STEP, worker=worker)
        assert [queue.pop().data["worker"] for _ in range(5)] == [
            0, 1, 2, 3, 4,
        ]

    def test_counters_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(0.0, EVENT_CLOUD_SYNC, index=1)
        queue.push(1.0, EVENT_CLOUD_SYNC, index=2)
        assert len(queue) == 2 and queue.pushed == 2
        queue.pop()
        assert queue.processed == 1 and len(queue) == 1

    def test_rejects_bad_times(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(-1.0, EVENT_WORKER_STEP)
        with pytest.raises(ValueError):
            queue.push(float("nan"), EVENT_WORKER_STEP)


class StubClient:
    """Minimal protocol client: counts calls, no numerics.

    Two groups of two workers (flat ids 0..3) unless ``flat``.
    """

    def __init__(self, num_workers=4, num_groups=2, flat=False,
                 diverge_at=None):
        per = num_workers // num_groups
        if flat:
            self.group_members = [np.arange(num_workers)]
        else:
            self.group_members = [
                np.arange(g * per, (g + 1) * per) for g in range(num_groups)
            ]
        self.diverge_at = diverge_at
        self.steps: list[tuple[int, int]] = []
        self.closed: list[tuple] = []
        self.synced: list[tuple] = []
        self.resyncs: list[int] = []
        self.snapshots: list[int] = []
        self.completed: list[int] = []

    def local_step(self, worker, t):
        self.steps.append((worker, t))
        if self.diverge_at is not None and t >= self.diverge_at:
            return float("nan")
        return 1.0

    def snapshot_stale(self, worker):
        self.snapshots.append(worker)

    def resync_worker(self, worker, group):
        self.resyncs.append(worker)

    def close_round(self, group, round_index, fresh, stale, receivers,
                    upload_events, *, dark=False):
        self.closed.append((group, round_index, fresh, stale, dark))

    def cloud_sync(self, index, receivers):
        self.synced.append((index, receivers))

    def round_complete(self, round_index, time):
        self.completed.append(round_index)


def make_runner(client, *, quorum=1.0, tau=3, pi=2, total=12, **kwargs):
    num_workers = sum(len(g) for g in client.group_members)
    deployment = AsyncDeployment(
        worker_device_pool(num_workers), payload_bytes=1e5, quorum=quorum
    )
    return EventLoopRunner(
        client,
        deployment,
        tau=tau,
        pi=pi,
        total_iterations=total,
        rng=0,
        **kwargs,
    )


class TestRunnerStructure:
    def test_full_quorum_schedule(self):
        """quorum=1: every worker takes every step, every round closes
        with all members fresh, cloud syncs every pi rounds."""
        client = StubClient()
        result = make_runner(client).run()
        # 4 workers x 12 iterations, no recomputation.
        assert len(client.steps) == 48
        for worker in range(4):
            ts = [t for w, t in client.steps if w == worker]
            assert ts == list(range(1, 13))
        # 4 rounds per group, all pristine and barrier-complete.
        assert len(client.closed) == 8
        for group, round_index, fresh, stale, dark in client.closed:
            assert len(fresh) == 2 and not stale and not dark
        assert [k for k, _ in client.synced] == [1, 2]
        assert client.completed == [1, 2, 3, 4]
        assert len(result.edge_rounds) == 8
        assert len(result.cloud_rounds) == 2
        assert not client.resyncs and not client.snapshots

    def test_round_and_cloud_records(self):
        client = StubClient()
        result = make_runner(client).run()
        for record in result.edge_rounds:
            assert record.finish_time > record.start_time
            assert not record.workers_late and not record.workers_stale
        per_group: dict[int, list[int]] = {}
        for record in result.edge_rounds:
            per_group.setdefault(record.edge, []).append(record.round_index)
        assert all(rounds == [1, 2, 3, 4] for rounds in per_group.values())
        assert [c.round_index for c in result.cloud_rounds] == [1, 2]
        for cloud in result.cloud_rounds:
            assert cloud.edges_included == (0, 1)
            assert cloud.stale_uploads == ()

    def test_flat_runs_have_no_cloud_events(self):
        client = StubClient(flat=True)
        result = make_runner(client, pi=1, flat=True).run()
        assert not client.synced
        # Each flat closure is the cloud round: one record apiece.
        assert [r.round_index for r in result.cloud_rounds] == [1, 2, 3, 4]
        assert [entry[1] for entry in client.closed] == [1, 2, 3, 4]

    def test_tail_interval_shorter_than_tau(self):
        client = StubClient()
        make_runner(client, tau=5, pi=1, total=12).run()
        ts = sorted(t for w, t in client.steps if w == 0)
        assert ts == list(range(1, 13))
        rounds = [entry[1] for entry in client.closed if entry[0] == 0]
        assert rounds == [1, 2, 3]

    def test_deterministic_replay(self):
        runs = []
        for _ in range(2):
            client = StubClient()
            result = make_runner(client, quorum=0.5).run()
            runs.append((
                client.steps,
                client.closed,
                [(e.round_index, e.start_time, e.finish_time)
                 for e in result.edge_rounds],
            ))
        assert runs[0] == runs[1]

    def test_tracer_counts_events(self):
        from repro.telemetry import get_tracer, set_tracer, Tracer

        previous = get_tracer()
        tracer = Tracer()
        set_tracer(tracer)
        try:
            make_runner(StubClient()).run()
        finally:
            set_tracer(previous)
        assert tracer.counters[f"eventsim.{EVENT_WORKER_STEP}"] == 48
        assert tracer.counters[f"eventsim.{EVENT_QUORUM_MET}"] == 8
        assert tracer.counters[f"eventsim.{EVENT_CLOUD_SYNC}"] == 2


class TestStalenessBookkeeping:
    def test_partial_quorum_buffers_and_resyncs(self):
        client = StubClient()
        runner = make_runner(client, quorum=0.5)
        runner.run()
        # Half quorum: somebody always arrives after closure, gets
        # snapshotted, buffered, resynced, and folded next round.
        assert client.snapshots
        assert runner.stale_log
        for group, round_index, worker, staleness in runner.stale_log:
            assert staleness >= 1
            assert worker in client.group_members[group]
            assert 1 <= round_index <= runner.total_rounds

    def test_stale_folds_disjoint_from_fresh(self):
        client = StubClient()
        make_runner(client, quorum=0.5, total=24).run()
        for group, round_index, fresh, stale, dark in client.closed:
            stale_ids = {w for w, _ in stale}
            assert not stale_ids & set(fresh)
            for _, staleness in stale:
                assert staleness >= 1

    def test_divergence_aborts_run(self):
        client = StubClient(diverge_at=4)
        runner = make_runner(client)
        runner.run()
        assert runner.diverged_at == 4
        assert np.isnan(runner.diverged_loss)
        # The abort is immediate: nothing past the first bad step.
        assert max(t for _, t in client.steps) == 4

    def test_divergence_can_be_ignored(self):
        client = StubClient(diverge_at=4)
        runner = make_runner(client, stop_on_divergence=False)
        runner.run()
        assert runner.diverged_at is not None
        assert client.completed == [1, 2, 3, 4]

    def test_device_count_mismatch_raises(self):
        client = StubClient()
        deployment = AsyncDeployment(
            worker_device_pool(3), payload_bytes=1e5
        )
        with pytest.raises(ValueError, match="devices"):
            EventLoopRunner(
                client, deployment, tau=3, total_iterations=6, rng=0
            )
