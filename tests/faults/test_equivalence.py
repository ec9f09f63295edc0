"""Degradation-equivalence (satellite S2).

Partial participation and fault-induced dropout are the same phenomenon
seen from two sides: SampledFedAvg *chooses* a participant subset per
round, while FedAvg under a dropout FaultPlan has the complement subset
*taken away*.  With identical participant sets and the ``renormalize``
policy, the two must produce identical trajectories — same local steps,
same renormalized survivor weights, same server models.

The scripted participant sets are nested (each round's set is a subset
of the previous round's receivers) because a returning worker resumes
from its last received model in the fault world but from the current
server model in the sampling world; nesting removes exactly that
(intended) semantic difference and isolates the aggregation arithmetic.
"""

import numpy as np
import pytest

from repro.algorithms import FedAvg, SampledFedAvg
from repro.faults import FaultPlan

from tests.conftest import build_tiny_federation

pytestmark = pytest.mark.faults

TAU = 6
TOTAL = 24

# Participant sets per training window (nested: each ⊆ the previous).
WINDOWS = [[0, 1, 2, 3], [0, 1, 3], [1, 3], [1, 3]]


class ScriptedSampledFedAvg(SampledFedAvg):
    """SampledFedAvg drawing its participants from a fixed script."""

    def __init__(self, federation, script, **kwargs):
        super().__init__(federation, **kwargs)
        self._script = [list(window) for window in script]

    def _sample_round(self):
        if self._script:
            self.active = sorted(self._script.pop(0))
        self.x[self.active] = self.server_params


def scripted_dropout_plan() -> FaultPlan:
    """Down-windows putting FedAvg's up-sets equal to WINDOWS per round.

    Window r covers iterations [r*TAU + 1, (r+1)*TAU]; a worker is down
    exactly in the windows where it is not a scripted participant.
    """
    num_workers = max(max(window) for window in WINDOWS) + 1
    spans = []
    for worker in range(num_workers):
        for r, window in enumerate(WINDOWS):
            if worker not in window:
                spans.append((worker, r * TAU + 1, (r + 1) * TAU))
    return FaultPlan(seed=0, scripted_worker_down=tuple(spans))


def test_sampled_fedavg_matches_faulted_fedavg(mnist_split):
    train, test = mnist_split

    sampled = ScriptedSampledFedAvg(
        build_tiny_federation(train, test),
        WINDOWS,
        eta=0.05,
        tau=TAU,
        rng=0,
    )
    sampled_history = sampled.run(TOTAL, eval_every=TOTAL)

    faulted = FedAvg(build_tiny_federation(train, test), eta=0.05, tau=TAU)
    faulted.attach_faults(scripted_dropout_plan(), policy="renormalize")
    faulted_history = faulted.run(TOTAL, eval_every=TOTAL)

    # Identical local steps -> identical per-iteration training losses.
    assert np.allclose(
        sampled_history.train_loss[1:],
        faulted_history.train_loss[1:],
        rtol=1e-12, atol=0,
    )
    # Identical renormalized aggregation -> identical server model; the
    # final round's receivers hold it in the fault world.
    final_receivers = WINDOWS[-1]
    for worker in final_receivers:
        assert np.allclose(
            sampled.x[worker], faulted.x[worker], rtol=1e-12, atol=0
        )
    assert np.allclose(
        sampled.server_params, faulted.x[final_receivers[0]],
        rtol=1e-12, atol=0,
    )
    # The fault plan degraded every round with an absentee and none else.
    rounds = faulted_history.fault_summary["rounds"]
    degraded_windows = sum(
        1 for window in WINDOWS if len(window) < len(WINDOWS[0])
    )
    assert rounds["degraded"] == degraded_windows
    assert rounds["skipped"] == 0


def test_equivalence_breaks_without_matching_sets(mnist_split):
    """Sanity: the equality above is not vacuous."""
    train, test = mnist_split
    sampled = ScriptedSampledFedAvg(
        build_tiny_federation(train, test),
        WINDOWS,
        eta=0.05,
        tau=TAU,
        rng=0,
    )
    sampled.run(TOTAL, eval_every=TOTAL)

    plain = FedAvg(build_tiny_federation(train, test), eta=0.05, tau=TAU)
    plain.run(TOTAL, eval_every=TOTAL)

    assert not np.allclose(
        sampled.server_params, plain.x[WINDOWS[-1][0]], rtol=1e-6
    )
