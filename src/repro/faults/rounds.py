"""Resolve one aggregation round's membership under faults.

:func:`degrade_round` is the one piece of logic every algorithm's
aggregation shares: given the candidates of a round (the workers of an
edge, all workers of a two-tier round, the edges of a cloud round),
their aggregation weights, and the iteration's availability mask, it
applies upload-loss outcomes and the degradation policy and returns a
:class:`RoundOutcome` describing

* which rows to aggregate and at which weights,
* which rows receive the redistribution (absent or download-failed
  participants keep their local state),
* how many ledger transfer events the round actually caused (attempted
  uploads + retransmissions + duplicates + successful downloads).

Rows are *selectors* into the candidate set: :data:`EVERYONE`
(``slice(None)``) or an index array.  Every round is resolved, faulted
or not.  A round no fault touches selects :data:`EVERYONE` at the
caller's own weight vector and bills one upload and one download per
candidate, so NumPy hands the aggregation views of the stacked state
and the fault-free arithmetic runs through the same expressions as a
degraded round, with nothing copied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.plan import check_policy

__all__ = ["EVERYONE", "RoundOutcome", "block_rows", "degrade_round"]

# The selector of every candidate; indexing with it returns a view.
EVERYONE = slice(None)


@dataclass(frozen=True)
class RoundOutcome:
    """Resolved membership and accounting for one aggregation round."""

    # Rows (selector into the candidate set) whose state enters the
    # weighted average, with the aligned effective weights.
    agg_rows: slice | np.ndarray
    agg_weights: np.ndarray | None
    # Rows that actually uploaded this round (reachable survivors) —
    # differs from agg_rows under carry_forward, where stale state of
    # absent rows is aggregated without any new message.
    present: slice | np.ndarray
    # Rows that receive the redistributed result.
    receivers: slice | np.ndarray
    # Ledger transfer events: uploads (incl. retries/duplicates) plus
    # successful downloads.
    events: int = 0
    skip: bool = False


_NOBODY = np.empty(0, dtype=int)
_SKIPPED_ROUND = RoundOutcome(_NOBODY, None, _NOBODY, _NOBODY, skip=True)


def block_rows(block: slice, selector: slice | np.ndarray):
    """Flat rows of ``selector`` taken within the contiguous ``block``.

    :data:`EVERYONE` stays a slice (the whole block, read as a view);
    an index array is offset to the block's start.
    """
    if isinstance(selector, slice):
        return block
    return block.start + selector


def degrade_round(
    faults: FaultInjector | None,
    policy: str,
    weights: np.ndarray,
    up: np.ndarray | None,
) -> RoundOutcome:
    """Resolve one round over ``len(weights)`` candidates.

    ``up`` is the iteration's availability mask restricted to the
    candidates (``None`` = everyone up).  Returns a ``skip`` outcome
    when the policy abandons the round (or no survivor remains), else
    the round's membership; a round no fault touches (always the case
    for ``faults=None``) selects :data:`EVERYONE` at ``weights`` itself
    and bills two transfer events per candidate.
    """
    count = len(weights)
    everyone = RoundOutcome(
        EVERYONE, weights, EVERYONE, EVERYONE, events=2 * count
    )
    if faults is None:
        return everyone
    candidates = np.arange(count)
    available = candidates if up is None else candidates[up]

    # Upload loss: reachable survivors must also get a message through.
    outcome = faults.transfer_outcome(available.size)
    if outcome.failed:
        delivered = np.ones(available.size, dtype=bool)
        delivered[list(outcome.failed)] = False
        present = available[delivered]
    else:
        present = available

    upload_events = available.size + outcome.extra_events

    if present.size == count and not outcome.extra_events:
        # Nobody absent, nothing lost or duplicated.
        faults.note_round("pristine")
        return everyone

    check_policy(policy)
    degraded = present.size < count
    if degraded and policy == "skip_round":
        # The coordinator abandons the round before any transfer is
        # billed; workers train on until the next scheduled round.
        faults.note_round("skipped")
        return _SKIPPED_ROUND
    if present.size == 0:
        faults.note_round("skipped")
        return _SKIPPED_ROUND

    if degraded and policy == "renormalize":
        agg_rows = present
        agg_weights = weights[present] / weights[present].sum()
    else:
        # carry_forward (or nothing absent, only retries/duplicates):
        # every candidate's last-known state at its original weight.
        agg_rows = EVERYONE
        agg_weights = weights

    # Redistribution reaches the reachable survivors whose download
    # also gets through.  Lost downloads were still transmitted: bill
    # initial attempts for every present row plus all retransmissions
    # and duplicates.
    receivers = present
    download = faults.transfer_outcome(present.size)
    if download.failed:
        got = np.ones(present.size, dtype=bool)
        got[list(download.failed)] = False
        receivers = present[got]
        degraded = True

    faults.note_round("degraded" if degraded else "pristine")
    return RoundOutcome(
        agg_rows=agg_rows,
        agg_weights=agg_weights,
        present=present,
        receivers=receivers,
        events=upload_events + present.size + download.extra_events,
    )
