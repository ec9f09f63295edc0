"""Tests for the event-driven execution engine (queue + runner)."""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan, TransferOutcome
from repro.simulation import (
    AsyncDeployment,
    DeviceProfile,
    LinkProfile,
    add_stragglers,
    worker_device_pool,
)
from repro.simulation import engine
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

    def local_steps(self, workers, ts, times):
        self.steps.extend(zip(workers, ts))
        return [
            float("nan")
            if self.diverge_at is not None and t >= self.diverge_at
            else 1.0
            for t in ts
        ]

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


# ----------------------------------------------------------------------
# Retry pricing: the wall-clock cost of a resent upload
# ----------------------------------------------------------------------
class ScriptedRetries:
    """An active injector whose one fault is ``retries`` resends of the
    first upload; every other query realizes nothing."""

    active = True

    def __init__(self, retries):
        self.pending = [retries]

    def transfer_outcome(self, count):
        retries = self.pending.pop() if self.pending else 0
        return TransferOutcome(retries=retries)

    def stale_flags(self, count):
        return None

    def worker_mask(self, t):
        return None

    def edge_mask(self, round_index):
        return None

    def mark(self):
        return None

    def note_round(self, kind):
        pass

    def maybe_crash(self, t):
        pass


class BillingClient(StubClient):
    """Sums the transfers the runner bills to each closed round."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.transfers = 0

    def close_round(self, group, round_index, fresh, stale, receivers,
                    upload_events, *, dark=False):
        super().close_round(group, round_index, fresh, stale, receivers,
                            upload_events, dark=dark)
        self.transfers += upload_events


class TestRetryPricing:
    """On a zero-jitter LAN and zero-sigma devices, resend i of an
    upload (counting from 0) costs a 0.5 s timeout doubled i times plus
    one fresh transfer."""

    LAN = LinkProfile("lan", 100.0, 0.002, jitter_sigma=0.0)
    PAYLOAD = 1e6

    def arrival(self, retries):
        """When one worker's one upload, resent ``retries`` times,
        reaches its edge (the round starts at its last fresh arrival)."""
        deployment = AsyncDeployment(
            [DeviceProfile("worker", 0.1, sigma=0.0)],
            self.PAYLOAD,
            edge_device=DeviceProfile("edge", 0.03, sigma=0.0),
            cloud_device=DeviceProfile("cloud", 0.004, sigma=0.0),
            lan=self.LAN,
        )
        runner = EventLoopRunner(
            StubClient(num_workers=1, num_groups=1),
            deployment,
            tau=1,
            total_iterations=1,
            faults=ScriptedRetries(retries),
            rng=0,
        )
        (record,) = runner.run().edge_rounds
        assert record.workers_included == (0,)
        return record.start_time

    def test_each_resend_adds_a_backed_off_timeout_and_a_transfer(self):
        transfer = self.LAN.transfer_time(self.PAYLOAD)
        clean = self.arrival(0)
        assert clean == pytest.approx(0.1 + transfer, rel=1e-12)
        previous = clean
        for retries in range(1, 6):
            arrival = self.arrival(retries)
            expected = sum(0.5 * 2.0**i + transfer for i in range(retries))
            assert arrival - clean == pytest.approx(expected, rel=1e-12)
            assert arrival > previous
            previous = arrival

    @pytest.mark.parametrize(
        "name, value", [("RETRY_TIMEOUT_SECONDS", 0.2), ("RETRY_BACKOFF", 3.0)]
    )
    def test_each_send_reads_the_module_constants(
        self, monkeypatch, name, value
    ):
        monkeypatch.setattr(engine, name, value)
        timeout, backoff = engine.RETRY_TIMEOUT_SECONDS, engine.RETRY_BACKOFF
        transfer = self.LAN.transfer_time(self.PAYLOAD)
        expected = sum(timeout * backoff**i + transfer for i in range(3))
        assert self.arrival(3) - self.arrival(0) == pytest.approx(
            expected, rel=1e-12
        )

    def test_an_upload_sent_once_prices_as_fault_free(self):
        """An active injector that realizes no resend draws no extra
        link delay: on jittery links and sampled devices the rounds
        equal the fault-free run's bit for bit."""

        def rounds(faults):
            result = make_runner(StubClient(), faults=faults).run()
            return result.edge_rounds, result.cloud_rounds

        assert rounds(ScriptedRetries(0)) == rounds(None)

    @pytest.mark.parametrize("flat", [False, True], ids=["three-tier", "flat"])
    def test_message_loss_slows_and_bills(self, flat):
        """Every realized resend is billed to its round as one more
        transfer, and on zero-jitter links and zero-sigma devices the
        lossy run ends later than the clean one."""

        def run(plan):
            client = BillingClient(flat=flat)
            deployment = AsyncDeployment(
                [DeviceProfile("worker", 0.1, sigma=0.0)] * 4,
                self.PAYLOAD,
                edge_device=DeviceProfile("edge", 0.03, sigma=0.0),
                cloud_device=DeviceProfile("cloud", 0.004, sigma=0.0),
                lan=self.LAN,
                wan=LinkProfile("wan", 10.0, 0.05, jitter_sigma=0.0),
            )
            faults = FaultInjector(plan, num_workers=4, num_edges=2)
            result = EventLoopRunner(
                client,
                deployment,
                tau=5,
                pi=2,
                total_iterations=20,
                faults=faults,
                rng=0,
                flat=flat,
            ).run()
            return client.transfers, result.total_time, faults.summary()

        clean_transfers, clean_time, _ = run(FaultPlan())
        transfers, time, summary = run(
            FaultPlan(seed=3, msg_loss=0.5, max_retries=20)
        )
        retries = summary["events"]["fault.retry"]
        assert summary["events"]["fault.msg_loss"] == 0  # none failed
        assert retries > 0
        assert transfers - clean_transfers == retries
        assert time > clean_time


# ----------------------------------------------------------------------
# Waves: the flush contract
# ----------------------------------------------------------------------
# Pure functions of the plan seed and a sequence number or iteration:
# they read no client state, so they may run while a wave is queued.
PURE_QUERIES = ("worker_mask", "transfer_outcome", "stale_flags")
FAULT_QUERIES = (*PURE_QUERIES, "edge_mask", "note_round")
CLIENT_CALLS = (
    "snapshot_stale", "resync_worker", "close_round", "cloud_sync",
    "round_complete",
)
RECORDED_PLAN = FaultPlan(
    seed=3, worker_dropout=0.1, edge_outage=0.1, msg_loss=0.1,
    msg_duplication=0.1, msg_staleness=0.2,
)


class RecordingClient(StubClient):
    """Logs every protocol call in order with the size of the runner's
    queued wave, its last event time at that moment and the call's
    arguments (a ``local_steps`` call logs its rows).

    ``nan_row`` makes the first wave from the ``nan_wave``-th on that
    has that row return NaN there; ``nan_call`` is that call's index in
    the log.
    """

    def __init__(self, nan_row=None, nan_wave=0, **kwargs):
        super().__init__(**kwargs)
        self.log: list[tuple] = []
        self.nan_row = nan_row
        self.nan_wave = nan_wave
        self.nan_call = None
        self.runner = None

    def _note(self, name, args=()):
        runner = self.runner
        self.log.append(
            (name, len(runner._wave), runner.last_event_time, args)
        )

    def local_steps(self, workers, ts, times):
        self.log.append(
            ("local_steps", list(workers), list(ts), list(times),
             self.runner.uploads_sent)
        )
        losses = super().local_steps(workers, ts, times)
        if (
            self.nan_call is None
            and self.nan_row is not None
            and len(waves(self.log)) > self.nan_wave
            and len(workers) > self.nan_row
        ):
            losses[self.nan_row] = float("nan")
            self.nan_call = len(self.log) - 1
        return losses

    def snapshot_stale(self, worker):
        self._note("snapshot_stale")
        super().snapshot_stale(worker)

    def resync_worker(self, worker, group):
        self._note("resync_worker")
        super().resync_worker(worker, group)

    def close_round(self, *args, **kwargs):
        self._note("close_round")
        super().close_round(*args, **kwargs)

    def cloud_sync(self, index, receivers):
        self._note("cloud_sync")
        super().cloud_sync(index, receivers)

    def round_complete(self, round_index, time):
        self._note("round_complete")
        super().round_complete(round_index, time)


class RecordingFaults:
    """A fault injector whose queries log into the client's call log."""

    def __init__(self, injector, client):
        self._injector = injector
        self._client = client

    def __getattr__(self, name):
        attribute = getattr(self._injector, name)
        if name not in FAULT_QUERIES:
            return attribute

        def query(*args):
            self._client._note(name, args)
            return attribute(*args)

        return query


def recorded_run(client, *, total=30):
    """8 workers under 2 edges at quorum 0.5, with stragglers, every
    fault kind and a checkpoint hook at each barrier."""
    deployment = AsyncDeployment(
        add_stragglers(worker_device_pool(8), 0.3, 6.0),
        payload_bytes=1e5,
        quorum=0.5,
    )
    runner = EventLoopRunner(
        client, deployment, tau=3, pi=2, total_iterations=total, rng=4,
        faults=FaultInjector(RECORDED_PLAN, num_workers=8, num_edges=2),
    )
    client.runner = runner
    runner.faults = RecordingFaults(runner.faults, client)
    runner.checkpoint_hook = lambda t: client._note("checkpoint_hook")
    runner.run()
    return runner


def waves(log):
    return [entry for entry in log if entry[0] == "local_steps"]


class TestWaves:
    def test_waves_hold_each_worker_once_in_event_order(self):
        client = RecordingClient(num_workers=8, num_groups=2)
        recorded_run(client)
        steps = waves(client.log)
        assert max(len(workers) for _, workers, *_ in steps) >= 3
        assert sum(len(workers) for _, workers, *_ in steps) > len(steps)
        for _, workers, ts, times, _ in steps:
            assert len(set(workers)) == len(workers)
            assert times == sorted(times)
        # Concatenated, the waves are the steps in the order they popped.
        every_time = [time for _, _, _, times, _ in steps for time in times]
        assert every_time == sorted(every_time)

    def test_every_other_call_finds_the_wave_empty(self):
        """Every client call and the checkpoint hook flush the wave
        first; the pure fault queries do not, and do see it queued."""
        client = RecordingClient(num_workers=8, num_groups=2)
        recorded_run(client)
        others = [entry for entry in client.log if entry[0] != "local_steps"]
        assert {name for name, *_ in others} == {
            *CLIENT_CALLS, "checkpoint_hook", *FAULT_QUERIES,
        }
        assert [
            entry for entry in others
            if entry[1] and entry[0] not in PURE_QUERIES
        ] == []
        assert {name for name, queued, *_ in others if queued} == set(
            PURE_QUERIES
        )

    def test_nan_in_a_wave_stops_at_that_row(self):
        # The 7th wave: message queries ran both before and after its
        # row 1 was queued.
        client = RecordingClient(
            nan_row=1, nan_wave=6, num_workers=8, num_groups=2
        )
        runner = recorded_run(client)
        diverging = client.nan_call
        _, workers, ts, times, uploads = client.log[diverging]
        assert len(workers) >= 2
        assert runner.diverged_at == ts[1]
        assert np.isnan(runner.diverged_loss)
        assert runner.last_event_time == times[1]
        # No later client call or checkpoint, and no further upload.
        assert diverging == len(client.log) - 1
        assert all(
            entry[2] <= times[1]
            for entry in client.log
            if entry[0] in (*CLIENT_CALLS, "checkpoint_hook")
        )
        assert runner.uploads_sent == uploads
        assert runner.result is not None
        # The fault queries logged after row 1 was queued are not part
        # of the run: a fresh injector that replays only those before it
        # (at an earlier event time, or at its own event before it was
        # queued) ends with the run's tallies.
        queries = [
            entry for entry in client.log if entry[0] in FAULT_QUERIES
        ]
        before = [
            entry for entry in queries
            if entry[2] < times[1] or (entry[2] == times[1] and entry[1] <= 1)
        ]
        # This wave queried the message stream on both sides of row 1.
        last_flush = max(
            i for i, entry in enumerate(client.log[:diverging])
            if entry[0] == "local_steps"
        )
        assert {
            queued > 1
            for name, queued, *_ in client.log[last_flush + 1:diverging]
            if name == "transfer_outcome"
        } == {False, True}
        replay = FaultInjector(RECORDED_PLAN, num_workers=8, num_edges=2)
        for name, _, _, args in before:
            getattr(replay, name)(*args)
        assert runner.faults.counts == replay.counts
        assert runner.faults._msg_sequence == replay._msg_sequence
