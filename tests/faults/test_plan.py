"""FaultPlan value-object semantics and injector determinism."""

import json

import numpy as np
import pytest

from repro.checkpoint.state import injector_state, restore_injector
from repro.faults import (
    DEGRADATION_POLICIES,
    FaultInjector,
    FaultPlan,
    NO_TRANSFER_FAULTS,
    check_policy,
)
from repro.faults.injector import MSG_BLOCK
from repro.utils.rng import child_seed

pytestmark = pytest.mark.faults


class TestPlanValidation:
    def test_defaults_are_zero(self):
        plan = FaultPlan()
        assert plan.is_zero
        assert not plan.has_message_faults

    @pytest.mark.parametrize(
        "field",
        ["worker_dropout", "edge_outage", "msg_loss",
         "msg_duplication", "msg_staleness"],
    )
    def test_probabilities_checked(self, field):
        with pytest.raises(ValueError):
            FaultPlan(**{field: 1.5})
        with pytest.raises(ValueError):
            FaultPlan(**{field: -0.1})

    def test_staleness_intervals_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(staleness_intervals=0)

    def test_max_retries_nonnegative(self):
        with pytest.raises(ValueError):
            FaultPlan(max_retries=-1)

    def test_bad_script_entries(self):
        with pytest.raises(ValueError):
            FaultPlan(scripted_worker_down=((0, 5, 2),))  # stop < start
        with pytest.raises(ValueError):
            FaultPlan(scripted_edge_down=((-1, 0, 2),))

    def test_scripts_make_plan_nonzero(self):
        plan = FaultPlan(scripted_worker_down=((1, 3, 7),))
        assert not plan.is_zero

    def test_check_policy(self):
        for policy in DEGRADATION_POLICIES:
            assert check_policy(policy) == policy
        with pytest.raises(ValueError):
            check_policy("resurrect")


class TestPlanRoundtrip:
    def test_dict_roundtrip(self):
        plan = FaultPlan(
            seed=7,
            worker_dropout=0.1,
            edge_outage=0.05,
            msg_loss=0.2,
            msg_duplication=0.03,
            msg_staleness=0.4,
            staleness_intervals=3,
            max_retries=5,
            scripted_worker_down=((1, 2, 9),),
            scripted_edge_down=((0, 1, 1), (1, 4, 6)),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_json_safe(self):
        plan = FaultPlan(seed=3, msg_loss=0.25,
                         scripted_worker_down=[[0, 1, 2]])
        payload = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(payload) == plan

    def test_scripts_normalized_to_tuples(self):
        plan = FaultPlan(scripted_worker_down=[[2, 0, 5]])
        assert plan.scripted_worker_down == ((2, 0, 5),)


class TestInjectorDeterminism:
    PLAN = FaultPlan(
        seed=11, worker_dropout=0.3, edge_outage=0.25,
        msg_loss=0.2, msg_duplication=0.2,
    )

    def _realize(self, plan):
        injector = FaultInjector(plan, num_workers=8, num_edges=3)
        masks = [injector.worker_mask(t) for t in range(1, 30)]
        edges = [injector.edge_mask(i) for i in range(1, 10)]
        transfers = [injector.transfer_outcome(8) for _ in range(10)]
        return masks, edges, transfers, dict(injector.counts)

    def test_same_plan_replays_identically(self):
        first = self._realize(self.PLAN)
        second = self._realize(self.PLAN)
        for a, b in zip(first[0] + first[1], second[0] + second[1]):
            if a is None:
                assert b is None
            else:
                assert np.array_equal(a, b)
        assert first[2] == second[2]
        assert first[3] == second[3]

    def test_different_seed_differs(self):
        other = FaultPlan(**{**self.PLAN.to_dict(), "seed": 12})
        assert self._realize(self.PLAN)[3] != self._realize(other)[3]

    def test_zero_plan_is_inert(self):
        injector = FaultInjector(FaultPlan(), num_workers=4, num_edges=2)
        assert not injector.active
        assert injector.worker_mask(1) is None
        assert injector.edge_mask(1) is None
        assert injector.transfer_outcome(4) is NO_TRANSFER_FAULTS
        matrix = np.ones((2, 3))
        assert injector.stale_substitute("cloud.x", matrix) is matrix
        assert all(v == 0 for v in injector.counts.values())


class ReferenceMessageFaults:
    """The message-fault queries as the plan defines them, one transfer
    at a time: query k draws from a fresh
    ``default_rng(child_seed(seed, "msg", k))``.  Covers plans with loss,
    duplication and staleness all on."""

    def __init__(self, plan):
        self.plan = plan
        self.sequence = 0
        self.counts = {
            "fault.retry": 0, "fault.msg_loss": 0, "fault.msg_dup": 0,
            "fault.msg_stale": 0,
        }

    def _rng(self):
        self.sequence += 1
        return np.random.default_rng(
            child_seed(self.plan.seed, "msg", self.sequence)
        )

    def transfer_outcome(self):
        """``(retries, duplicates, failed)`` of one transfer."""
        plan = self.plan
        rng = self._rng()
        attempts = rng.random((plan.max_retries + 1, 1))[:, 0]
        lost = [draw < plan.msg_loss for draw in attempts]
        failed = all(lost)
        retries = plan.max_retries if failed else lost.index(False)
        duplicate = rng.random(1)[0] < plan.msg_duplication and not failed
        self.counts["fault.retry"] += retries
        self.counts["fault.msg_loss"] += int(failed)
        self.counts["fault.msg_dup"] += int(duplicate)
        return retries, int(duplicate), (0,) if failed else ()

    def stale_flag(self):
        stale = self._rng().random(1)[0] < self.plan.msg_staleness
        self.counts["fault.msg_stale"] += int(stale)
        return stale


class TestMessageStreams:
    """Batch-seeded message streams against per-query seeding."""

    PLAN = FaultPlan(
        seed=3, msg_loss=0.1, msg_duplication=0.1, msg_staleness=0.2
    )
    KEYS = ("fault.retry", "fault.msg_loss", "fault.msg_dup",
            "fault.msg_stale")

    def _agree(self, injector, reference, queries):
        for _ in range(queries):
            outcome = injector.transfer_outcome(1)
            assert (
                outcome.retries, outcome.duplicates, outcome.failed
            ) == reference.transfer_outcome()
            flags = injector.stale_flags(1)
            assert (flags is not None) == reference.stale_flag()
        assert injector._msg_sequence == reference.sequence
        assert {
            key: injector.counts[key] for key in self.KEYS
        } == reference.counts

    @pytest.mark.parametrize("max_retries", [None, 0])
    def test_every_query_matches_fresh_seeding(self, max_retries):
        """Over three blocks; without retries a lost transfer fails."""
        plan = self.PLAN
        if max_retries is not None:
            plan = FaultPlan(**{**plan.to_dict(), "max_retries": max_retries})
        injector = FaultInjector(plan, num_workers=4, num_edges=2)
        reference = ReferenceMessageFaults(plan)
        # Two sequence numbers per pair of queries.
        self._agree(injector, reference, 3 * MSG_BLOCK // 2 + 7)
        assert reference.sequence > 3 * MSG_BLOCK
        realized = "fault.msg_loss" if max_retries == 0 else "fault.retry"
        for key in (realized, "fault.msg_dup", "fault.msg_stale"):
            assert reference.counts[key] > 0

    def test_reset_replays_from_the_start(self):
        injector = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        self._agree(injector, ReferenceMessageFaults(self.PLAN), 150)
        injector.reset()
        self._agree(injector, ReferenceMessageFaults(self.PLAN), 300)

    def test_restored_sequence_moves_back_and_forward(self):
        """As a checkpoint restore sets it: back into an earlier block,
        then forward past the seeded one."""
        injector = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        reference = ReferenceMessageFaults(self.PLAN)
        snapshots = []
        for queries in (40, 2 * MSG_BLOCK):
            self._agree(injector, reference, queries)
            snapshots.append(
                (injector_state(injector), reference.sequence,
                 dict(reference.counts))
            )
        early, late = snapshots
        for state, sequence, counts in (early, late, early):
            injector.reset()
            restore_injector(injector, *state)
            reference = ReferenceMessageFaults(self.PLAN)
            reference.sequence, reference.counts = sequence, dict(counts)
            self._agree(injector, reference, 60)

    def test_rewind_undoes_the_queries_since_a_mark(self):
        injector = FaultInjector(self.PLAN, num_workers=4, num_edges=2)
        reference = ReferenceMessageFaults(self.PLAN)
        self._agree(injector, reference, 10)
        mark = injector.mark()
        counts = dict(injector.counts)
        for _ in range(5):
            injector.transfer_outcome(1)
            injector.stale_flags(1)
        injector.rewind(mark)
        assert injector.counts == counts
        self._agree(injector, reference, 10)


class TestSurvivorFloor:
    def test_total_dropout_keeps_one_worker(self):
        injector = FaultInjector(
            FaultPlan(worker_dropout=1.0), num_workers=6, num_edges=2
        )
        mask = injector.worker_mask(1)
        assert mask.sum() == 1 and mask[0]

    def test_scripted_total_outage_keeps_one_edge(self):
        plan = FaultPlan(scripted_edge_down=((0, 0, 9), (1, 0, 9)))
        injector = FaultInjector(plan, num_workers=4, num_edges=2)
        mask = injector.edge_mask(3)
        assert mask.sum() == 1 and mask[0]

    def test_edge_mask_cached_per_interval(self):
        injector = FaultInjector(
            FaultPlan(edge_outage=0.5, seed=2), num_workers=4, num_edges=4
        )
        first = injector.edge_mask(1)
        count_after_first = injector.counts["fault.edge_outage"]
        second = injector.edge_mask(1)
        assert (first is second if first is None
                else np.array_equal(first, second))
        # The cloud re-querying the same interval must not double-count.
        assert injector.counts["fault.edge_outage"] == count_after_first


class TestStaleness:
    def test_first_upload_never_stale(self):
        injector = FaultInjector(
            FaultPlan(msg_staleness=1.0), num_workers=4, num_edges=2
        )
        matrix = np.arange(6.0).reshape(2, 3)
        assert injector.stale_substitute("cloud.x", matrix) is matrix
        assert injector.counts["fault.msg_stale"] == 0

    def test_substitutes_from_buffer(self):
        injector = FaultInjector(
            FaultPlan(msg_staleness=1.0, staleness_intervals=1),
            num_workers=4, num_edges=2,
        )
        old = np.zeros((2, 3))
        new = np.ones((2, 3))
        injector.stale_substitute("cloud.x", old)
        result = injector.stale_substitute("cloud.x", new)
        assert np.array_equal(result, old)
        assert injector.counts["fault.msg_stale"] == 2

    def test_labels_are_independent(self):
        injector = FaultInjector(
            FaultPlan(msg_staleness=1.0), num_workers=4, num_edges=2
        )
        injector.stale_substitute("cloud.x", np.zeros((2, 2)))
        fresh = np.ones((2, 2))
        # First upload under a different label has no buffer to draw on.
        assert injector.stale_substitute("cloud.y", fresh) is fresh
