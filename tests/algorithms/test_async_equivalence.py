"""Sync-equivalence battery and staleness property tests.

The headline guarantee of the event-driven engine: with ``quorum=1.0``
and no faults, every round closes as a full barrier and the async
variants take the exact lockstep aggregation expressions — so they must
reproduce the golden trajectories at rtol 1e-8.  The property tests
then drive partial quorums and fault plans through the engine and check
the staleness bookkeeping invariants that hold for *any* deployment.
"""

import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    ASYNC_ALGORITHM_REGISTRY,
    AsyncFedAvg,
    AsyncHierAdMo,
)
from repro.faults import FaultPlan
from repro.simulation import (
    AsyncDeployment,
    add_stragglers,
    worker_device_pool,
)
from tests.integration.test_golden_trajectories import (
    ALGORITHMS,
    EVAL_EVERY,
    GOLDEN_PATH,
    TOTAL_ITERATIONS,
    build_federation,
)

pytestmark = pytest.mark.eventsim

ASYNC_OF = {"HierAdMo": AsyncHierAdMo, "FedAvg": AsyncFedAvg}


def run_async(name, *, deployment=None, plan=None, sim_rng=0, **overrides):
    federation = build_federation()
    kwargs = {**ALGORITHMS[name][1], **overrides}
    algorithm = ASYNC_OF[name](
        federation, deployment=deployment, sim_rng=sim_rng, **kwargs
    )
    if plan is not None:
        algorithm.attach_faults(plan)
    history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    return history, algorithm


@functools.cache
def lockstep_comm(name):
    """The lockstep run's communication ledger, as a dict."""
    cls, kwargs = ALGORITHMS[name]
    history = cls(build_federation(), **kwargs).run(
        TOTAL_ITERATIONS, eval_every=EVAL_EVERY
    )
    return history.comm.to_dict()


def straggler_deployment(quorum, num_workers=4):
    pool = add_stragglers(worker_device_pool(num_workers), 0.5, 8.0)
    return AsyncDeployment(pool, payload_bytes=1e5, quorum=quorum)


class TestSyncEquivalence:
    """quorum=1.0 + zero faults must reproduce the lockstep goldens."""

    @pytest.fixture(scope="class")
    def goldens(self):
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("name", ["HierAdMo", "FedAvg"])
    def test_matches_golden_trajectory(self, goldens, name):
        history, _ = run_async(name)
        golden = goldens[name]
        assert list(history.iterations) == golden["iterations"]
        for series in ("test_accuracy", "test_loss"):
            assert np.allclose(
                getattr(history, series),
                golden[series],
                rtol=1e-8,
                atol=1e-10,
            ), f"async {name}.{series} diverged from the lockstep golden"
        assert np.allclose(
            history.train_loss[1:],
            golden["train_loss"][1:],
            rtol=1e-8,
            atol=1e-10,
        )
        fresh_trace = [
            [trace[edge] for edge in sorted(trace)]
            for trace in history.gamma_trace
        ]
        assert len(fresh_trace) == len(golden["gamma_trace"])
        for fresh_round, golden_round in zip(
            fresh_trace, golden["gamma_trace"]
        ):
            assert np.allclose(
                fresh_round, golden_round, rtol=1e-8, atol=1e-10
            )

    @pytest.mark.parametrize("name", ["HierAdMo", "FedAvg"])
    def test_comm_ledger_matches_lockstep(self, name):
        """The event clock bills what the lockstep clock bills: every
        scheduled round once, on both tiers, and the same transfers."""
        history, _ = run_async(name)
        assert history.comm.to_dict() == lockstep_comm(name)

    @pytest.mark.parametrize("name", ["HierAdMo", "FedAvg"])
    def test_zero_fault_plan_is_bit_exact(self, goldens, name):
        """An attached all-zero plan must not perturb the trajectory."""
        history, algorithm = run_async(name, plan=FaultPlan(seed=1))
        assert np.allclose(
            history.test_accuracy,
            goldens[name]["test_accuracy"],
            rtol=1e-8,
            atol=1e-10,
        )
        assert history.fault_summary is not None
        assert algorithm.runner.stale_log == []

    @pytest.mark.parametrize("name", ["HierAdMo", "FedAvg"])
    def test_simulated_time_axis(self, name):
        history, algorithm = run_async(name)
        assert len(history.eval_times) == len(history.iterations)
        assert history.eval_times[0] == 0.0
        assert np.all(np.diff(history.eval_times) > 0)
        target = history.final_accuracy
        assert history.time_to_accuracy(target) is not None
        assert history.time_to_accuracy(2.0) is None

    def test_registry(self):
        assert set(ASYNC_ALGORITHM_REGISTRY) == {
            "AsyncHierAdMo",
            "AsyncFedAvg",
        }
        for cls in ASYNC_ALGORITHM_REGISTRY.values():
            assert cls.name in ASYNC_ALGORITHM_REGISTRY

    def test_full_quorum_has_no_staleness(self):
        _, algorithm = run_async("HierAdMo")
        simulation = algorithm.simulation
        for record in simulation.edge_rounds:
            assert not record.workers_late and not record.workers_stale
        for cloud in simulation.cloud_rounds:
            assert cloud.stale_uploads == ()


class TestStalenessProperties:
    """Invariants that hold for any quorum/fault deployment."""

    @settings(max_examples=8, deadline=None)
    @given(
        quorum=st.sampled_from([0.5, 0.75, 1.0]),
        sim_rng=st.integers(min_value=0, max_value=2**16),
        name=st.sampled_from(["HierAdMo", "FedAvg"]),
    )
    def test_staleness_bookkeeping(self, quorum, sim_rng, name):
        _, algorithm = run_async(
            name,
            deployment=straggler_deployment(quorum),
            sim_rng=sim_rng,
        )
        runner = algorithm.runner
        simulation = algorithm.simulation
        groups = algorithm.group_members
        # Every fold is at least one round stale and group-consistent.
        for group, round_index, worker, staleness in runner.stale_log:
            assert staleness >= 1
            assert worker in groups[group]
            assert 1 <= round_index <= runner.total_rounds
        for record in simulation.edge_rounds:
            # Fresh and stale memberships never overlap.
            assert not set(record.workers_included) & set(
                record.workers_stale
            )
            assert record.finish_time > record.start_time
        # Per-group round indices are sequential with monotone times.
        per_group: dict[int, list] = {}
        for record in simulation.edge_rounds:
            per_group.setdefault(record.edge, []).append(record)
        for records in per_group.values():
            assert [r.round_index for r in records] == list(
                range(1, len(records) + 1)
            )
            finishes = [r.finish_time for r in records]
            assert finishes == sorted(finishes)
        # The history's time axis is monotone regardless of staleness.
        history = algorithm.history
        assert np.all(np.diff(history.eval_times) > 0)
        assert len(history.eval_times) == len(history.iterations)

    @pytest.mark.parametrize("quorum", [0.5, 0.75])
    @pytest.mark.parametrize("name", ["HierAdMo", "FedAvg"])
    def test_partial_quorum_bills_each_scheduled_round_once(
        self, name, quorum
    ):
        """A round that closes below a full barrier is still one
        scheduled round on each tier, as on the lockstep clock; only
        its transfers can fall short of the lockstep count."""
        history, _ = run_async(name, deployment=straggler_deployment(quorum))
        comm = history.comm.to_dict()
        lockstep = lockstep_comm(name)
        for rounds in ("worker_edge_rounds", "edge_cloud_rounds"):
            assert comm[rounds] == lockstep[rounds]
        for events in ("worker_edge_events", "edge_cloud_events"):
            assert comm[events] <= lockstep[events]

    def test_flat_run_tallies_stale_uploads(self):
        """Each AsyncFedAvg closure is its cloud round, so the fault
        summary tallies the uploads that missed their quorum (regression:
        the tally read only cloud-sync records, which a flat run never
        writes, and always read zero)."""
        plan = FaultPlan(
            seed=7, worker_dropout=0.1, edge_outage=0.05, msg_loss=0.1,
            msg_duplication=0.05, msg_staleness=0.2, staleness_intervals=3,
        )
        history, algorithm = run_async(
            "FedAvg", deployment=straggler_deployment(0.5), plan=plan
        )
        tally = history.fault_summary["stale_uploads"]
        runner = algorithm.runner
        assert tally["uploads"] > 0
        assert tally["cloud_rounds"] == runner.total_rounds
        assert runner.stale_log
        folded = {worker for _, _, worker, _ in runner.stale_log}
        assert folded <= set(tally["workers"])

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        msg_loss=st.sampled_from([0.0, 0.1, 0.2]),
        msg_staleness=st.sampled_from([0.0, 0.15, 0.3]),
    )
    def test_fault_routed_staleness(self, seed, msg_loss, msg_staleness):
        plan = FaultPlan(
            seed=seed, msg_loss=msg_loss, msg_staleness=msg_staleness
        )
        history, algorithm = run_async(
            "HierAdMo",
            deployment=straggler_deployment(1.0),
            plan=plan,
        )
        counts = algorithm.faults.counts
        runner = algorithm.runner
        if plan.is_zero:
            # Inactive injectors are bypassed entirely (the bit-exact
            # fast path): no folds, no realized events of any kind.
            assert runner.stale_log == []
            assert all(value == 0 for value in counts.values())
        else:
            assert (
                counts["round.pristine"]
                + counts["round.degraded"]
                + counts["round.skipped"]
                == runner.total_rounds * 2
            )
        # A fault-forced stale upload is demoted by the plan's staleness
        # horizon, so any fold of one is at least that stale.
        forced = counts["fault.msg_stale"]
        if forced:
            horizon = max(1, plan.staleness_intervals)
            deep = [s for *_, s in runner.stale_log if s >= horizon]
            assert len(deep) <= forced
        # Whatever happened, the run still records a coherent history.
        assert len(history.eval_times) == len(history.iterations)
        assert np.isfinite(history.final_accuracy)
        assert history.fault_summary is not None
