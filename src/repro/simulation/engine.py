"""Event-driven asynchronous execution engine.

A shared event queue drives training itself: worker steps, uploads and
aggregations fire at their simulated times.  The deployment simulator
:class:`~repro.simulation.events.EventDrivenSimulator` runs the same
engine with a client that computes nothing.  Four event kinds circulate:

* ``worker_compute_done`` — one worker finished one local iteration at
  its simulated completion time; the runner queues that worker's
  gradient step in the current *wave* (below),
* ``upload_arrived`` — a finished interval's state reached the
  aggregator over the LAN/WAN (message loss, duplication and staleness
  fates from an attached :class:`~repro.faults.FaultInjector` are
  realized per upload, where lockstep rounds call ``degrade_round``),
* ``edge_quorum_met`` — enough fresh uploads arrived to close the
  aggregation round; whatever versions arrived are aggregated,
* ``cloud_sync`` — every ``pi``-th round the edge groups meet at the
  cloud barrier.

The runner owns time, ordering and bookkeeping; the *client* owns the
numerics.  The runner is the event clock of the one run driver,
``FLAlgorithm.run``: an algorithm mixing in
:class:`repro.algorithms.AsyncExecutionMixin` builds a runner in its
clock method and is its client.  A client is duck-typed and provides::

    group_members          list of flat worker-id arrays, one per group
    local_steps(ws, ts, times)
                           one gradient step of each worker ws[i] at
                           nominal iteration ts[i], which finished at
                           simulated times[i]; rows in event order, no
                           worker twice; adds the batch losses to the
                           driver's train-loss window in that order and
                           returns them
    snapshot_stale(w)      buffer worker w's state for a later stale fold
    resync_worker(w, g)    worker w downloads group g's current model
    close_round(g, r, fresh, stale, receivers, upload_events, dark)
                           aggregate round r from the fresh ids and the
                           (worker, staleness) stale pairs; redistribute
                           to the receivers; bill upload_events transfers
    cloud_sync(k, receivers)   cloud round k over all groups
    round_complete(r, time)    barrier notification: every group's round
                           r state is final; the driver's shared barrier
                           work runs here (scheduled eval at simulated
                           ``time``, cohort rebind)

The optional ``checkpoint_hook(t)`` runs between events after a barrier
at nominal iteration ``t``; the driver saves the runner's
:meth:`EventLoopRunner.state_dict` there as the clock's state.

**Waves.**  Between two client calls, a worker's step reads and writes
only that worker's rows, so the runner does not hand each step over
when it pops it.  It queues the computing steps and runs the queue (the
wave) as one ``local_steps`` call before anything that could observe
them or be observed after them:

* every other client call (``snapshot_stale``, ``resync_worker``,
  ``close_round``, ``cloud_sync``, ``round_complete``), so every late
  upload and every quorum and cloud event flushes first;
* the checkpoint hook, so a checkpoint never sees a queued step;
* queuing a second step of a worker already in the wave;
* the end of :meth:`EventLoopRunner.run`.

The fault queries the runner makes while popping (an upload's
``transfer_outcome`` and ``stale_flags``, a ``worker_mask`` for an
iteration not yet cached) do not flush: each is a pure function of the
plan seed and a message sequence number or an iteration, and reads no
client state.  ``edge_mask`` and ``note_round`` run after a closure's
flush.  Between two flushes the runner touches only its own clocks,
heap and generator and the injector's tallies, so every client call,
fault draw and checkpoint happens in the same state as when each step
ran at its pop.  A scripted crash (``maybe_crash``) drops the queued
wave, as a killed process loses its uncheckpointed work.

The runner reads a wave's losses in event order: the first non-finite
one sets ``diverged_at``, ``diverged_loss`` and ``last_event_time``
(that step's event time) and ends the run, so nothing runs after it;
the engine has no switch to train on.  Rows queued behind it may already have been computed; they
are never billed, aggregated or evaluated.  The fault queries made
after the diverging step was queued are undone too: before each query
made while a wave is queued, the runner marks the injector's tallies
(:meth:`~repro.faults.FaultInjector.mark`), and it rewinds the injector
to the first mark taken after that row was queued, so
``fault_summary`` counts what a run stepping at each pop would have
realized.  The runner's own counters (``queue.processed``,
``uploads_sent``, the ``eventsim.*`` tracer counts) can include events
popped after the diverging step, before its wave ran.

Per-node message buffers (the arrived-but-not-yet-folded uploads) follow
the per-node mailbox idiom of asynchronous FL simulators: a late or
fault-stale upload is *buffered* with its model version, the sender is
resynchronized to the current model and resumes computing, and the
buffered contribution enters the next closure with staleness
``s = current_version - uploaded_version``.

With ``quorum=1.0`` and no faults every round closes with every member
fresh, which reduces the whole machine to the lockstep barrier schedule
— the sync-equivalence guarantee pinned by the golden-trajectory tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from repro.simulation.devices import DEVICE_PRESETS, DeviceProfile
from repro.simulation.events import (
    CloudRoundRecord,
    EdgeRoundRecord,
    EventSimulation,
)
from repro.simulation.links import LINK_PRESETS, LinkProfile
from repro.telemetry import get_tracer
from repro.utils.rng import make_rng
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_quorum,
)

__all__ = [
    "EVENT_WORKER_STEP",
    "EVENT_UPLOAD_ARRIVED",
    "EVENT_QUORUM_MET",
    "EVENT_CLOUD_SYNC",
    "Event",
    "EventQueue",
    "AsyncDeployment",
    "EventLoopRunner",
]

EVENT_WORKER_STEP = "worker_compute_done"
EVENT_UPLOAD_ARRIVED = "upload_arrived"
EVENT_QUORUM_MET = "edge_quorum_met"
EVENT_CLOUD_SYNC = "cloud_sync"

# Retransmission pricing of an upload that realized retries: each resend
# waits out the loss timeout, which grows by the backoff factor per
# resend, then pays a fresh transfer.
RETRY_TIMEOUT_SECONDS = 0.5
RETRY_BACKOFF = 2.0

# Worker phases.
_COMPUTING = 0
_WAITING = 1
_DONE = 2


class _Diverged(Exception):
    """A wave's loss went non-finite; unwinds the run to its end."""


class Event(NamedTuple):
    """One scheduled occurrence on the shared queue.

    Ordered by ``(time, seq)``: simultaneous events pop in push (FIFO)
    order, which keeps replays bit-deterministic.  ``seq`` is unique per
    queue, so the heap's tuple comparisons (done in C) never reach
    ``kind`` or ``data``.
    """

    time: float
    seq: int
    kind: str
    data: dict


class EventQueue:
    """Min-heap event queue with FIFO tie-breaking and event counters."""

    def __init__(self):
        self._heap: list[Event] = []
        self._seq = 0
        self.pushed = 0
        self.processed = 0

    def push(self, time: float, kind: str, **data) -> Event:
        """Schedule ``kind`` at simulated ``time``."""
        if not (math.isfinite(time) and time >= 0.0):
            raise ValueError(f"event time must be finite and >= 0, got {time}")
        event = Event(float(time), self._seq, kind, data)
        self._seq += 1
        heapq.heappush(self._heap, event)
        self.pushed += 1
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        self.processed += 1
        return heapq.heappop(self._heap)

    def state_dict(self) -> dict:
        """JSON-able snapshot (event data must be JSON-able itself)."""
        return {
            "heap": [
                [e.time, e.seq, e.kind, dict(e.data)] for e in self._heap
            ],
            "seq": self._seq,
            "pushed": self.pushed,
            "processed": self.processed,
        }

    def load_state_dict(self, state: dict) -> None:
        # The (time, seq) ordering is total, so any valid heap over the
        # same events pops in the identical sequence — heapify is safe.
        self._heap = [
            Event(float(t), int(s), str(kind), dict(data))
            for t, s, kind, data in state["heap"]
        ]
        heapq.heapify(self._heap)
        self._seq = int(state["seq"])
        self.pushed = int(state["pushed"])
        self.processed = int(state["processed"])

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass
class AsyncDeployment:
    """Physical deployment a run is timed on.

    Bundles the worker, edge and cloud devices, the LAN and WAN links,
    the bytes of one transfer and the edge quorum, so the event engine,
    :class:`~repro.simulation.events.EventDrivenSimulator` and the
    energy estimate all take one argument instead of seven.  A two-tier
    (flat) run uses the WAN and the cloud device only.
    ``payload_bytes`` already includes the algorithm's payload
    multiplier.
    """

    worker_devices: list[DeviceProfile]
    payload_bytes: float
    edge_device: DeviceProfile | None = None
    cloud_device: DeviceProfile | None = None
    lan: LinkProfile | None = None
    wan: LinkProfile | None = None
    quorum: float = 1.0

    def __post_init__(self):
        if not self.worker_devices:
            raise ValueError("worker_devices must be non-empty")
        self.payload_bytes = check_positive(self.payload_bytes,
                                            "payload_bytes")
        self.edge_device = self.edge_device or DEVICE_PRESETS[
            "macbook_pro_i7"
        ]
        self.cloud_device = self.cloud_device or DEVICE_PRESETS[
            "gpu_tower_2080ti"
        ]
        self.lan = self.lan or LINK_PRESETS["wifi_5ghz"]
        self.wan = self.wan or LINK_PRESETS["wan_internet"]
        self.quorum = check_quorum(self.quorum)


class EventLoopRunner:
    """Drive one training run from the shared event queue.

    After :meth:`run`, ``result`` holds the
    :class:`~repro.simulation.events.EventSimulation` (edge/cloud round
    records with staleness fields; a flat run records each closure as
    its cloud round too), ``stale_log`` the realized
    ``(group, round, worker, staleness)`` folds, and
    ``diverged_at``/``diverged_loss`` the abort point when a non-finite
    loss stopped the run (a non-finite loss always does).
    """

    def __init__(
        self,
        client,
        deployment: AsyncDeployment,
        *,
        tau: int,
        pi: int = 1,
        total_iterations: int,
        faults=None,
        rng=None,
        flat: bool = False,
    ):
        self.client = client
        self.dep = deployment
        self.tau = check_positive_int(tau, "tau")
        self.pi = check_positive_int(pi, "pi")
        self.total_iterations = check_positive_int(
            total_iterations, "total_iterations"
        )
        # An inactive injector realizes nothing, so the runner drops it:
        # a zero plan draws nothing and tallies nothing, as in lockstep
        # runs.  Scripted crashes are exempt: they must fire even from a
        # crash-only plan (which perturbs no numerics), so the original
        # injector is kept under a separate name.
        self._crash_faults = faults
        self.faults = faults if faults is not None and faults.active else None
        self.rng = make_rng(rng)
        self.flat = bool(flat)

        self.groups = [
            np.asarray(group, dtype=int) for group in client.group_members
        ]
        self.num_groups = len(self.groups)
        self.num_workers = sum(len(group) for group in self.groups)
        if len(deployment.worker_devices) != self.num_workers:
            raise ValueError(
                f"{len(deployment.worker_devices)} devices for "
                f"{self.num_workers} workers"
            )
        # Flat (two-tier) groups upload straight to the cloud over the
        # WAN; three-tier groups talk to their edge node over the LAN.
        if self.flat:
            self._upload_link = deployment.wan
            self._group_device = deployment.cloud_device
        else:
            self._upload_link = deployment.lan
            self._group_device = deployment.edge_device

        self.total_rounds = math.ceil(self.total_iterations / self.tau)
        self._group_of = np.empty(self.num_workers, dtype=int)
        for g, members in enumerate(self.groups):
            self._group_of[members] = g
        self._needed = [
            max(1, math.ceil(deployment.quorum * len(members)))
            for members in self.groups
        ]

        # Per-worker state.
        self._clock = [0.0] * self.num_workers
        self._phase = [_COMPUTING] * self.num_workers
        self._version = [0] * self.num_workers
        self._steps_left = [0] * self.num_workers
        # Per-group round state.
        self._fresh: list[dict[int, float]] = [
            {} for _ in range(self.num_groups)
        ]
        self._stale: list[dict[int, int]] = [
            {} for _ in range(self.num_groups)
        ]
        self._lost: list[set[int]] = [set() for _ in range(self.num_groups)]
        self._inflight: list[set[int]] = [
            set() for _ in range(self.num_groups)
        ]
        self._pending_transfers = [0] * self.num_groups
        self._closing = [False] * self.num_groups
        self._next_round = [1] * self.num_groups
        self._completed = [0] * self.num_groups
        self._stale_since_cloud: list[set[int]] = [
            set() for _ in range(self.num_groups)
        ]
        # Cloud barrier: group -> (WAN-upload-ready time, receiver set).
        self._cloud_wait: dict[int, tuple[float, set[int]]] = {}
        self._cloud_round = 0
        self._notified = 0
        self._worker_masks: dict[int, np.ndarray | None] = {}

        self.queue = EventQueue()
        # Optional durability hook, set by the client before ``run``:
        # called with the barrier's nominal iteration between events
        # whenever a round barrier advanced ``_notified`` — the only
        # points where the client's history is coherent with the engine
        # state.
        self.checkpoint_hook = None
        self._ckpt_notified = 0
        self.result: EventSimulation | None = None
        self.stale_log: list[tuple[int, int, int, int]] = []
        self.uploads_sent = 0
        self.last_event_time = 0.0
        self.diverged_at: int | None = None
        self.diverged_loss = float("nan")
        # The wave: worker -> (t, event time) of each queued step, in
        # event order (dicts keep insertion order).
        self._wave: dict[int, tuple[int, float]] = {}
        # The injector's tallies before the fault queries made while the
        # wave is queued: (rows queued, mark), the first at each size.
        self._marks: list[tuple[int, tuple]] = []
        self._edge_records: list[EdgeRoundRecord] = []
        self._cloud_records: list[CloudRoundRecord] = []

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, *, resume: bool = False) -> EventSimulation:
        """Process events until every group completed every round.

        With ``resume=True`` the initial worker intervals are NOT
        seeded — the restored event queue (from :meth:`load_state_dict`)
        already holds every in-flight occurrence.
        """
        if not resume:
            for worker in range(self.num_workers):
                self._begin_interval(worker, 0.0)
        handlers = {
            EVENT_WORKER_STEP: self._on_worker_step,
            EVENT_UPLOAD_ARRIVED: self._on_upload_arrived,
            EVENT_QUORUM_MET: self._on_quorum_met,
            EVENT_CLOUD_SYNC: self._on_cloud_sync,
        }
        # Generous runaway backstop: a healthy run processes a few
        # events per worker iteration plus a few per round.
        limit = 1000 + 100 * self.num_workers * self.total_iterations
        tracer = get_tracer()
        try:
            while self.queue:
                if (
                    self.checkpoint_hook is not None
                    and self._notified > self._ckpt_notified
                ):
                    # Between events, right after a round barrier: the
                    # client evaluated, every group's state is final.
                    self._flush()
                    self._ckpt_notified = self._notified
                    self.checkpoint_hook(
                        min(self._notified * self.tau, self.total_iterations)
                    )
                if self._notified >= self.total_rounds:
                    break
                event = self.queue.pop()
                if self.queue.processed > limit:
                    raise RuntimeError(
                        "event budget exceeded — the event loop is not "
                        "converging (engine bug or pathological deployment)"
                    )
                self.last_event_time = event.time
                if (
                    self._crash_faults is not None
                    and event.kind == EVENT_WORKER_STEP
                ):
                    # Scripted kill: the first worker event at a crashed
                    # nominal iteration aborts the process before any
                    # state mutates (FIFO pop order makes it replayable).
                    self._crash_faults.maybe_crash(event.data["t"])
                if tracer.enabled:
                    tracer.count(f"eventsim.{event.kind}")
                handlers[event.kind](event)
            self._flush()
        except _Diverged:
            pass
        finally:
            # Build the result even when a handler raised (e.g. a
            # MonitorAbort escalated by a health monitor) so callers can
            # still read the rounds completed up to that point.
            self.result = EventSimulation(
                edge_rounds=self._edge_records,
                cloud_rounds=self._cloud_records,
            )
        return self.result

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _interval_length(self, round_index: int) -> int:
        """Local iterations of round ``round_index`` (short tail interval)."""
        return min(
            self.tau,
            self.total_iterations - (round_index - 1) * self.tau,
        )

    def _begin_interval(self, worker: int, at_time: float) -> None:
        version = self._version[worker]
        if version >= self.total_rounds:
            self._phase[worker] = _DONE
            return
        self._phase[worker] = _COMPUTING
        self._steps_left[worker] = self._interval_length(version + 1)
        self._clock[worker] = at_time
        self._schedule_step(worker)

    def _schedule_step(self, worker: int) -> None:
        version = self._version[worker]
        length = self._interval_length(version + 1)
        t = version * self.tau + (length - self._steps_left[worker] + 1)
        delay = self.dep.worker_devices[worker].sample_iteration(self.rng)
        self.queue.push(
            self._clock[worker] + delay, EVENT_WORKER_STEP, worker=worker, t=t
        )

    def _worker_up(self, t: int, worker: int) -> bool:
        if self.faults is None:
            return True
        if t not in self._worker_masks:
            self._mark()
            self._worker_masks[t] = self.faults.worker_mask(t)
        mask = self._worker_masks[t]
        return mask is None or bool(mask[worker])

    def _on_worker_step(self, event: Event) -> None:
        worker = event.data["worker"]
        if self._phase[worker] != _COMPUTING:
            return
        t = event.data["t"]
        self._clock[worker] = event.time
        if self._worker_up(t, worker):
            if worker in self._wave:
                self._flush()
            self._wave[worker] = (t, event.time)
        self._steps_left[worker] -= 1
        if self._steps_left[worker] > 0:
            self._schedule_step(worker)
        else:
            self._send_upload(worker, event.time)

    def _mark(self) -> None:
        """Mark the injector's tallies before a fault query made while a
        wave is queued, so a diverging row can rewind the queries made
        after it was queued (only the first mark at a wave size counts).
        """
        queued = len(self._wave)
        if queued and (not self._marks or self._marks[-1][0] != queued):
            self._marks.append((queued, self.faults.mark()))

    def _flush(self) -> None:
        """Run the queued wave as one ``local_steps`` call.

        Raises :class:`_Diverged` at the first non-finite loss, so
        nothing runs after that step, and rewinds the fault queries made
        after that row was queued.
        """
        wave = self._wave
        if not wave:
            return
        self._wave = {}
        marks, self._marks = self._marks, []
        ts, times = zip(*wave.values())
        losses = self.client.local_steps(list(wave), ts, times)
        for row, (t, time, loss) in enumerate(zip(ts, times, losses)):
            if not math.isfinite(loss):
                self.diverged_at = t
                self.diverged_loss = float(loss)
                self.last_event_time = time
                for queued, mark in marks:
                    if queued > row:
                        self.faults.rewind(mark)
                        break
                raise _Diverged

    # ------------------------------------------------------------------
    # Uploads and the per-group message buffer
    # ------------------------------------------------------------------
    def _send_upload(self, worker: int, time: float) -> None:
        group = int(self._group_of[worker])
        self._phase[worker] = _WAITING
        self.uploads_sent += 1
        retries = 0
        failed = False
        stale_forced = False
        if self.faults is not None:
            self._mark()
            outcome = self.faults.transfer_outcome(1)
            retries = outcome.retries
            # Duplicates are billed (the wire moved them) but have no
            # numeric effect on an idempotent state upload.
            self._pending_transfers[group] += outcome.duplicates
            failed = bool(outcome.failed)
            if not failed:
                flags = self.faults.stale_flags(1)
                stale_forced = flags is not None and bool(flags[0])
        self._pending_transfers[group] += 1 + retries
        if failed:
            self._lost[group].add(worker)
            self._maybe_force_close(group, time)
            return
        delay = self._upload_link.transfer_time(self.dep.payload_bytes,
                                                self.rng)
        wait = RETRY_TIMEOUT_SECONDS
        for _ in range(retries):
            delay += wait + self._upload_link.transfer_time(
                self.dep.payload_bytes, self.rng
            )
            wait *= RETRY_BACKOFF
        self._inflight[group].add(worker)
        self.queue.push(
            time + delay,
            EVENT_UPLOAD_ARRIVED,
            worker=worker,
            group=group,
            version=self._version[worker],
            stale=stale_forced,
        )

    def _on_upload_arrived(self, event: Event) -> None:
        worker = event.data["worker"]
        group = event.data["group"]
        version = event.data["version"]
        self._inflight[group].discard(worker)
        round_index = self._next_round[group]
        if round_index > self.total_rounds:
            # The group finished while this upload was in flight.
            self._phase[worker] = _DONE
            return
        if version == round_index - 1 and not event.data["stale"]:
            self._fresh[group][worker] = event.time
            if (
                not self._closing[group]
                and len(self._fresh[group]) >= self._needed[group]
            ):
                self._closing[group] = True
                self.queue.push(event.time, EVENT_QUORUM_MET, group=group)
            else:
                self._maybe_force_close(group, event.time)
            return
        # Late (or fault-stale) upload: buffer it with its version,
        # resynchronize the sender to the current model and let it
        # resume — the per-node mailbox of asynchronous FL.
        if event.data["stale"] and version == round_index - 1:
            # A fault-stale payload carries an old model even though it
            # was produced this round; demote its version accordingly.
            version = round_index - 1 - max(
                1, self.faults.plan.staleness_intervals
            )
        self._flush()
        self.client.snapshot_stale(worker)
        self._stale[group][worker] = version
        # The quorum closed without this upload — record it for the next
        # cloud round even if a fresh re-upload later supersedes it.
        self._stale_since_cloud[group].add(worker)
        if group in self._cloud_wait:
            # The group sits at the cloud barrier: hold the worker, the
            # cloud broadcast will resynchronize it.
            self._cloud_wait[group][1].add(worker)
            return
        self.client.resync_worker(worker, group)
        self._version[worker] = round_index - 1
        download = self._upload_link.transfer_time(self.dep.payload_bytes,
                                                   self.rng)
        self._begin_interval(worker, event.time + download)

    def _maybe_force_close(self, group: int, time: float) -> None:
        """Close a round that can no longer reach its quorum.

        With message loss, every member can end up waiting with nothing
        in flight; the round then closes on whatever arrived so the
        lost workers can be re-synchronized (deadlock avoidance).
        """
        if self._closing[group] or group in self._cloud_wait:
            return
        if self._next_round[group] > self.total_rounds:
            return
        if len(self._fresh[group]) >= self._needed[group]:
            return
        if self._inflight[group]:
            return
        if any(
            self._phase[w] == _COMPUTING for w in self.groups[group]
        ):
            return
        self._closing[group] = True
        self.queue.push(time, EVENT_QUORUM_MET, group=group, forced=True)

    # ------------------------------------------------------------------
    # Round closure
    # ------------------------------------------------------------------
    def _on_quorum_met(self, event: Event) -> None:
        self._flush()
        group = event.data["group"]
        self._closing[group] = False
        round_index = self._next_round[group]
        fresh = self._fresh[group]
        fresh_ids = sorted(fresh)
        start = max(fresh.values()) if fresh else event.time
        finish = start + self._group_device.sample_aggregation(self.rng)

        dark = False
        if self.faults is not None and not self.flat:
            mask = self.faults.edge_mask(round_index)
            dark = mask is not None and not mask[group]

        # Fold the message buffer: a fresh re-upload supersedes the same
        # worker's buffered stale one.
        stale_pairs = [
            (w, round_index - 1 - v)
            for w, v in sorted(self._stale[group].items())
            if w not in fresh
        ]
        receivers = tuple(sorted(set(fresh_ids) | self._lost[group]))
        pending = self._pending_transfers[group]

        if dark:
            # Dark edge: nothing aggregates. Fresh arrivals are demoted
            # to the stale buffer (their work returns next round) and
            # everyone at the barrier resumes from the last distributed
            # model.
            self.faults.note_round("skipped")
            for w in fresh_ids:
                self.client.snapshot_stale(w)
                self._stale[group][w] = round_index - 1
                self._stale_since_cloud[group].add(w)
            self.client.close_round(
                group, round_index, (), (), receivers, pending, dark=True
            )
            included: tuple[int, ...] = ()
            stale_recorded: tuple[int, ...] = ()
        else:
            if self.faults is not None:
                pristine = (
                    len(fresh_ids) == len(self.groups[group])
                    and not stale_pairs
                )
                self.faults.note_round(
                    "pristine" if pristine else "degraded"
                )
            self.client.close_round(
                group,
                round_index,
                tuple(fresh_ids),
                tuple(stale_pairs),
                receivers,
                pending,
                dark=False,
            )
            for w, s in stale_pairs:
                self.stale_log.append((group, round_index, w, s))
                self._stale_since_cloud[group].add(w)
            self._stale[group] = {}
            included = tuple(fresh_ids)
            stale_recorded = tuple(w for w, _ in stale_pairs)

        member_set = set(receivers)
        late = tuple(
            int(w) for w in self.groups[group]
            if w not in member_set and self._phase[w] != _DONE
        )
        self._stale_since_cloud[group].update(late)
        self._edge_records.append(
            EdgeRoundRecord(
                edge=group,
                round_index=round_index,
                start_time=float(start),
                finish_time=float(finish),
                workers_included=included,
                workers_late=late,
                workers_stale=stale_recorded,
            )
        )
        if self.flat:
            # A flat closure is the cloud round.
            self._record_cloud_round(round_index, start, finish)

        tracer = get_tracer()
        if tracer.monitored:
            # Quorum wait: how long the round held its first arrival
            # before enough fresh uploads closed it.
            wait = (start - min(fresh.values())) if fresh else None
            data = {
                "group": group,
                "round": round_index,
                "fresh": len(included),
                "members": len(self.groups[group]),
                "staleness": [int(s) for _, s in stale_pairs],
                "forced": bool(event.data.get("forced")),
                "dark": dark,
                "receivers": len(receivers),
                "transfers": int(pending),
            }
            if wait is not None:
                data["quorum_wait"] = float(wait)
            hook = getattr(self.client, "monitor_round_data", None)
            if hook is not None:
                data.update(hook(group, round_index))
            tracer.emit(
                "edge_round",
                iteration=min(round_index * self.tau, self.total_iterations),
                tier="cloud" if self.flat else "edge",
                sim_time=float(finish),
                **data,
            )

        self._fresh[group] = {}
        self._lost[group] = set()
        self._pending_transfers[group] = 0
        self._next_round[group] = round_index + 1

        if not self.flat and round_index % self.pi == 0:
            # Cloud barrier: hold the downloads until the sync.
            ready = finish + self.dep.wan.transfer_time(
                self.dep.payload_bytes, self.rng
            )
            self._cloud_wait[group] = (ready, set(receivers))
            if len(self._cloud_wait) == self.num_groups:
                cloud_start = max(
                    ready for ready, _ in self._cloud_wait.values()
                )
                self.queue.push(
                    cloud_start,
                    EVENT_CLOUD_SYNC,
                    index=self._cloud_round + 1,
                )
            return
        for w in receivers:
            self._version[w] = round_index
            download = self._upload_link.transfer_time(
                self.dep.payload_bytes, self.rng
            )
            self._begin_interval(w, finish + download)
        self._completed[group] = round_index
        self._notify(finish)

    # ------------------------------------------------------------------
    # Cloud synchronization
    # ------------------------------------------------------------------
    def _on_cloud_sync(self, event: Event) -> None:
        self._flush()
        index = event.data["index"]
        start = event.time
        finish = start + self.dep.cloud_device.sample_aggregation(self.rng)
        all_receivers = sorted(
            set().union(*(recv for _, recv in self._cloud_wait.values()))
        )
        self.client.cloud_sync(index, tuple(all_receivers))
        stale_ids = self._record_cloud_round(index, start, finish)
        tracer = get_tracer()
        if tracer.monitored:
            tracer.emit(
                "cloud_round",
                iteration=min(
                    index * self.tau * self.pi, self.total_iterations
                ),
                tier="cloud",
                sim_time=float(finish),
                round=index,
                edges=self.num_groups,
                stale_uploads=len(stale_ids),
                receivers=len(all_receivers),
            )
        for group in range(self.num_groups):
            boundary = self._next_round[group] - 1
            _, receivers = self._cloud_wait[group]
            wan_down = self.dep.wan.transfer_time(
                self.dep.payload_bytes, self.rng
            )
            for w in sorted(receivers):
                self._version[w] = boundary
                lan_down = self.dep.lan.transfer_time(
                    self.dep.payload_bytes, self.rng
                )
                self._begin_interval(w, finish + wan_down + lan_down)
            self._completed[group] = boundary
        self._cloud_wait = {}
        self._cloud_round = index
        self._notify(finish)

    def _record_cloud_round(
        self, index: int, start: float, finish: float
    ) -> tuple[int, ...]:
        """Record cloud round ``index`` with the uploads that missed a
        quorum since the previous one; returns those workers."""
        stale_ids = tuple(sorted(set().union(*self._stale_since_cloud)))
        self._cloud_records.append(
            CloudRoundRecord(
                round_index=index,
                start_time=float(start),
                finish_time=float(finish),
                edges_included=tuple(range(self.num_groups)),
                stale_uploads=stale_ids,
            )
        )
        self._stale_since_cloud = [set() for _ in range(self.num_groups)]
        return stale_ids

    # ------------------------------------------------------------------
    # Round-barrier notifications
    # ------------------------------------------------------------------
    def _notify(self, time: float) -> None:
        target = min(self._completed)
        while self._notified < target:
            self._notified += 1
            self.client.round_complete(self._notified, time)

    # ------------------------------------------------------------------
    # Durable snapshots (checkpoint/restore)
    # ------------------------------------------------------------------
    # The fields run() consults, each named once and grouped by JSON
    # shape: scalar lists, per-group worker sets, per-group worker-keyed
    # maps, scalars, and the round records (via dataclasses.asdict).
    _LISTS = ("_clock", "_phase", "_version", "_steps_left",
              "_pending_transfers", "_closing", "_next_round", "_completed")
    _WORKER_SETS = ("_lost", "_inflight", "_stale_since_cloud")
    _WORKER_MAPS = ("_fresh", "_stale")
    _SCALARS = ("_cloud_round", "_notified", "uploads_sent",
                "last_event_time", "diverged_at", "diverged_loss")
    _RECORDS = {"_edge_records": EdgeRoundRecord,
                "_cloud_records": CloudRoundRecord}

    def state_dict(self) -> dict:
        """JSON-able snapshot of the complete engine state.

        Captures everything :meth:`run` consults — worker phases and
        clocks, per-group round buffers, the event heap, the simulation
        RNG and the round records — so a fresh runner restored via
        :meth:`load_state_dict` and run with ``resume=True`` replays the
        remaining events bit-for-bit.
        """
        state = {}
        for name in self._LISTS:
            state[_key(name)] = list(getattr(self, name))
        for name in self._WORKER_SETS:
            state[_key(name)] = [sorted(s) for s in getattr(self, name)]
        for name in self._WORKER_MAPS:
            state[_key(name)] = [
                {str(w): value for w, value in group.items()}
                for group in getattr(self, name)
            ]
        for name in self._SCALARS:
            state[_key(name)] = getattr(self, name)
        for name in self._RECORDS:
            state[_key(name)] = [asdict(r) for r in getattr(self, name)]
        state.update(
            cloud_wait={
                str(g): [ready, sorted(receivers)]
                for g, (ready, receivers) in self._cloud_wait.items()
            },
            worker_masks={
                str(t): None if mask is None else mask.tolist()
                for t, mask in self._worker_masks.items()
            },
            queue=self.queue.state_dict(),
            stale_log=[list(entry) for entry in self.stale_log],
            rng=self.rng.bit_generator.state,
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this runner."""
        for name in self._LISTS:
            setattr(self, name, list(state[_key(name)]))
        for name in self._WORKER_SETS:
            setattr(self, name, [set(s) for s in state[_key(name)]])
        for name in self._WORKER_MAPS:
            setattr(self, name, [
                {int(w): value for w, value in group.items()}
                for group in state[_key(name)]
            ])
        for name in self._SCALARS:
            setattr(self, name, state[_key(name)])
        for name, record in self._RECORDS.items():
            setattr(self, name, [
                record(**{
                    attr: tuple(value) if isinstance(value, list) else value
                    for attr, value in saved.items()
                })
                for saved in state[_key(name)]
            ])
        self._cloud_wait = {
            int(g): (ready, set(receivers))
            for g, (ready, receivers) in state["cloud_wait"].items()
        }
        self._worker_masks = {
            int(t): None if mask is None else np.asarray(mask, dtype=bool)
            for t, mask in state["worker_masks"].items()
        }
        self.queue.load_state_dict(state["queue"])
        self.stale_log = [tuple(entry) for entry in state["stale_log"]]
        self.rng.bit_generator.state = state["rng"]
        # Don't immediately re-save the round we restored from.
        self._ckpt_notified = self._notified


def _key(name: str) -> str:
    """Snapshot key of a runner field: its name without the underscore."""
    return name.lstrip("_")
