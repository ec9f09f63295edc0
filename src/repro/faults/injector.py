"""Deterministic runtime realization of a :class:`FaultPlan`.

One :class:`FaultInjector` is attached per algorithm run.  Every query
is a pure function of the plan seed and the query's coordinates
(iteration index, interval index, or a monotone message-event counter),
derived through :func:`repro.utils.rng.child_seed` — so a replay of the
same plan on the same topology realizes the identical fault sequence,
and two queries for the same iteration agree even across processes.

An all-zero plan marks the injector inactive: every query answers
"nothing happened" without touching an RNG, and no round is tallied,
so a run with the zero plan attached is bit-identical to a run with no
plan.  Masks are ``None`` whenever nobody is down, which
:func:`~repro.faults.degrade_round` resolves to every candidate at the
caller's own weights.

Message faults draw from the stream of a monotone sequence number k,
``default_rng(child_seed(seed, "msg", k))``.  Those streams are seeded
:data:`MSG_BLOCK` sequence numbers at a time, in one
:func:`~repro.utils.rng.child_seeds` +
:func:`~repro.utils.rng.default_rng_states` batch, and one generator is
re-pointed at the state of each k as it is queried: bit for bit the
generator a fresh ``default_rng`` would build, at a fraction of its
seeding cost.  Keyed by k, the draws stay exact after :meth:`reset` or
a checkpoint-restored sequence number.

Realized events are counted once, into the injector's ``counts`` dict,
which :meth:`FaultInjector.summary` digests into
``history.fault_summary``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import FaultPlan
from repro.utils.rng import (
    child_seed,
    child_seeds,
    default_rng_states,
    make_rng,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "FaultInjector",
    "InjectedCrash",
    "TransferOutcome",
    "NO_TRANSFER_FAULTS",
]


class InjectedCrash(RuntimeError):
    """Raised by :meth:`FaultInjector.maybe_crash` at a scripted kill.

    Simulates an abrupt process death at the top of an iteration (or
    event-engine round): the run driver does not catch it, so training
    stops with whatever checkpoints were already durable on disk — the
    crash-recovery tests then resume and must match the uninterrupted
    golden trajectory.
    """

    def __init__(self, iteration: int):
        super().__init__(f"injected crash at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class TransferOutcome:
    """Realized message faults for one batch of transfers.

    ``retries`` counts every retransmission attempt (each one moves a
    full payload again, so the ledger bills it as an extra transfer
    event); ``duplicates`` counts spurious double-deliveries (same
    billing, no numeric effect); ``failed`` holds the positions (within
    the batch) whose transfer never got through within ``max_retries``
    — the degradation policy treats those senders as absent.
    """

    retries: int = 0
    duplicates: int = 0
    failed: tuple[int, ...] = ()

    @property
    def extra_events(self) -> int:
        """Ledger transfer events beyond the nominal ones."""
        return self.retries + self.duplicates


NO_TRANSFER_FAULTS = TransferOutcome()

# Message-fault streams seeded per batch.  At this size a stream costs
# ~1.9 us to seed and ~1.2 us to re-point the generator at, against
# ~12 us for a fresh ``default_rng`` (2-vCPU x86 host), and holds a few
# hundred bytes of state.
MSG_BLOCK = 256

# Counter names (also used as tracer counter keys).
COUNTERS = (
    "fault.worker_drop",
    "fault.edge_outage",
    "fault.msg_loss",
    "fault.msg_dup",
    "fault.msg_stale",
    "fault.retry",
    "fault.crash",
    "round.pristine",
    "round.degraded",
    "round.skipped",
)


class FaultInjector:
    """Realizes a :class:`FaultPlan` for one (num_workers, num_edges)."""

    def __init__(
        self, plan: FaultPlan, *, num_workers: int, num_edges: int
    ):
        self.plan = plan
        self.num_workers = check_positive_int(num_workers, "num_workers")
        self.num_edges = check_positive_int(num_edges, "num_edges")
        # Inactive injectors answer every query with "nothing
        # happened" and draw nothing.  Crashes are deliberately not part
        # of ``active``: a crash-only plan perturbs no numeric query.
        self.active = not plan.is_zero
        self._crash_at = frozenset(plan.crash_iterations)
        # The seeded block of message streams: the PCG64 states of
        # sequence numbers ``_msg_block_start`` onward, and the one
        # generator re-pointed at each.  A pure function of the plan, so
        # ``reset`` keeps it.
        self._msg_block_start = 0
        self._msg_states: list[dict] = []
        self._msg_rng = np.random.default_rng(0)
        self.reset()

    def reset(self) -> None:
        """Clear realized-event state for a fresh run of the same plan."""
        self.counts: dict[str, int] = {name: 0 for name in COUNTERS}
        self._msg_sequence = 0
        self._stale_buffers: dict[str, deque] = {}
        # Edge masks are queried by both the edge and the (coinciding)
        # cloud update; cache per interval so events count once.
        self._edge_masks: dict[int, np.ndarray | None] = {}

    # ------------------------------------------------------------------
    # Counting
    # ------------------------------------------------------------------
    def note_round(self, kind: str) -> None:
        """Record one aggregation round outcome (pristine/degraded/skipped).

        An inactive injector realizes nothing and tallies nothing, the
        same as the event engine, which never consults one.
        """
        if self.active:
            self.counts[f"round.{kind}"] += 1

    def mark(self) -> tuple[dict[str, int], int]:
        """The realized-event tallies and message sequence number now."""
        return dict(self.counts), self._msg_sequence

    def rewind(self, mark: tuple[dict[str, int], int]) -> None:
        """Restore a :meth:`mark`: the queries made since then are not
        counted, and the next message query draws where they started.

        The event engine uses it to undo the pure fault queries it made
        after a worker step that diverged before its wave ran.
        """
        counts, sequence = mark
        self.counts = dict(counts)
        self._msg_sequence = sequence

    # ------------------------------------------------------------------
    # Scripted crashes (checkpoint/recovery testing)
    # ------------------------------------------------------------------
    def maybe_crash(self, t: int) -> None:
        """Raise :class:`InjectedCrash` when ``t`` is a scripted kill.

        Checked by both run clocks at the top of iteration/round ``t``,
        before any state mutates — so everything already checkpointed
        is exactly the state an uninterrupted run had at that point.
        Fires even on an otherwise-inactive injector (crash-only plans
        must not perturb numerics, see :class:`FaultPlan`).
        """
        if t in self._crash_at:
            self.counts["fault.crash"] += 1
            raise InjectedCrash(t)

    # ------------------------------------------------------------------
    # Worker dropout (per iteration)
    # ------------------------------------------------------------------
    def worker_mask(self, t: int) -> np.ndarray | None:
        """Availability of every worker at iteration ``t``.

        Returns ``None`` when everyone is up (the common case), else a
        boolean ``(num_workers,)`` array with ``True`` = up.  At least
        one worker is always kept up — a federation with zero reachable
        workers cannot make progress, so the lowest-index victim is
        resurrected (and not counted).
        """
        if not self.active:
            return None
        plan = self.plan
        mask: np.ndarray | None = None
        if plan.worker_dropout > 0.0:
            rng = make_rng(child_seed(plan.seed, "worker", t))
            mask = rng.random(self.num_workers) >= plan.worker_dropout
        for worker, start, stop in plan.scripted_worker_down:
            if start <= t <= stop and worker < self.num_workers:
                if mask is None:
                    mask = np.ones(self.num_workers, dtype=bool)
                mask[worker] = False
        if mask is None or mask.all():
            return None
        if not mask.any():
            mask[0] = True
        self.counts["fault.worker_drop"] += int((~mask).sum())
        return mask

    # ------------------------------------------------------------------
    # Edge outage (per edge interval)
    # ------------------------------------------------------------------
    def edge_mask(self, interval: int) -> np.ndarray | None:
        """Availability of every edge node during ``interval``.

        ``None`` = all edges up.  As with workers, at least one edge is
        kept up so the cloud tier always has a participant.
        """
        if not self.active:
            return None
        if interval in self._edge_masks:
            return self._edge_masks[interval]
        plan = self.plan
        mask: np.ndarray | None = None
        if plan.edge_outage > 0.0:
            rng = make_rng(child_seed(plan.seed, "edge", interval))
            mask = rng.random(self.num_edges) >= plan.edge_outage
        for edge, start, stop in plan.scripted_edge_down:
            if start <= interval <= stop and edge < self.num_edges:
                if mask is None:
                    mask = np.ones(self.num_edges, dtype=bool)
                mask[edge] = False
        if mask is not None and not mask.any():
            mask[0] = True
        if mask is not None and mask.all():
            mask = None
        self._edge_masks[interval] = mask
        if mask is not None:
            self.counts["fault.edge_outage"] += int((~mask).sum())
        return mask

    # ------------------------------------------------------------------
    # Message faults (per transfer batch)
    # ------------------------------------------------------------------
    def _next_msg_rng(self) -> np.random.Generator:
        """Advance the message sequence to k; k's stream, freshly seeded.

        Equals ``default_rng(child_seed(seed, "msg", k))``: once k leaves
        the seeded block, the next :data:`MSG_BLOCK` streams from k are
        seeded in one batch.
        """
        self._msg_sequence += 1
        k = self._msg_sequence
        offset = k - self._msg_block_start
        if not 0 <= offset < len(self._msg_states):
            self._msg_block_start, offset = k, 0
            self._msg_states = default_rng_states(
                child_seeds(
                    self.plan.seed, "msg", ids=np.arange(k, k + MSG_BLOCK)
                )
            )
        self._msg_rng.bit_generator.state = self._msg_states[offset]
        return self._msg_rng

    def transfer_outcome(self, count: int) -> TransferOutcome:
        """Realize loss/duplication for a batch of ``count`` transfers.

        Consecutive calls advance an internal sequence counter, so the
        outcome stream is deterministic for a deterministic call order
        (which every algorithm's aggregation schedule guarantees).
        """
        plan = self.plan
        if not self.active or count <= 0 or not plan.has_message_faults:
            return NO_TRANSFER_FAULTS
        rng = self._next_msg_rng()
        retries = 0
        failed: list[int] = []
        if plan.msg_loss > 0.0:
            # Attempt matrix: row a is attempt a's loss draw per transfer.
            lost = rng.random((plan.max_retries + 1, count)) < plan.msg_loss
            delivered = ~lost.all(axis=0)
            # First successful attempt index = number of retries used.
            first_ok = np.argmax(~lost, axis=0)
            retries = int(first_ok[delivered].sum())
            retries += int((~delivered).sum()) * plan.max_retries
            failed = np.flatnonzero(~delivered).tolist()
        duplicates = 0
        if plan.msg_duplication > 0.0:
            dup_draws = rng.random(count) < plan.msg_duplication
            if failed:
                dup_draws[np.asarray(failed, dtype=int)] = False
            duplicates = int(dup_draws.sum())
        self.counts["fault.retry"] += retries
        self.counts["fault.msg_loss"] += len(failed)
        self.counts["fault.msg_dup"] += duplicates
        return TransferOutcome(
            retries=retries,
            duplicates=duplicates,
            failed=tuple(int(i) for i in failed),
        )

    # ------------------------------------------------------------------
    # Staleness (per-upload fates for the event-driven engine)
    # ------------------------------------------------------------------
    def stale_flags(self, count: int) -> np.ndarray | None:
        """Which of ``count`` uploads deliver a *stale* payload.

        The event-driven engine keeps per-node message buffers, so a
        stale message is demoted at the receiver (buffered and folded
        into the next round with a decayed weight) rather than
        substituted from a ring buffer as :meth:`stale_substitute` does
        for the lockstep replay.  Fates come from the same monotone
        message stream as :meth:`transfer_outcome`, so a replay of the
        plan realizes the identical sequence.  Returns ``None`` when no
        upload is stale (the common fast path), else a boolean array
        with ``True`` = stale.
        """
        plan = self.plan
        if not self.active or count <= 0 or plan.msg_staleness <= 0.0:
            return None
        rng = self._next_msg_rng()
        flags = rng.random(count) < plan.msg_staleness
        if not flags.any():
            return None
        self.counts["fault.msg_stale"] += int(flags.sum())
        return flags

    # ------------------------------------------------------------------
    # Staleness (edge -> cloud uploads)
    # ------------------------------------------------------------------
    def stale_substitute(
        self, label: str, matrix: np.ndarray
    ) -> np.ndarray:
        """Apply staleness to an edge-state matrix uploaded to the cloud.

        Maintains a ring buffer of the last ``staleness_intervals``
        uploads under ``label``; each row is independently substituted
        with its oldest buffered version with probability
        ``msg_staleness``.  Returns ``matrix`` itself (no copy) when no
        substitution happens.
        """
        plan = self.plan
        if not self.active or plan.msg_staleness <= 0.0:
            return matrix
        buffer = self._stale_buffers.get(label)
        if buffer is None:
            buffer = self._stale_buffers[label] = deque(
                maxlen=plan.staleness_intervals
            )
        self._msg_sequence += 1
        rng = make_rng(
            child_seed(plan.seed, "stale", label, self._msg_sequence)
        )
        stale_rows = np.flatnonzero(
            rng.random(matrix.shape[0]) < plan.msg_staleness
        )
        result = matrix
        if stale_rows.size and buffer:
            result = matrix.copy()
            result[stale_rows] = buffer[0][stale_rows]
            self.counts["fault.msg_stale"] += int(stale_rows.size)
        buffer.append(matrix.copy())
        return result

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-able digest: the plan, realized events, round outcomes."""
        rounds = {
            kind: self.counts[f"round.{kind}"]
            for kind in ("pristine", "degraded", "skipped")
        }
        events = {
            name: value
            for name, value in self.counts.items()
            if name.startswith("fault.")
        }
        return {
            "plan": self.plan.to_dict(),
            "events": events,
            "rounds": {
                **rounds,
                "total": sum(rounds.values()),
            },
        }
