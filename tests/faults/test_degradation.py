"""Degradation-policy semantics and the nonzero-plan acceptance run."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import HierAdMo
from repro.faults import FaultPlan

from tests.conftest import build_tiny_federation

pytestmark = pytest.mark.faults

# Worker 1 (edge 0) is down for the whole run: every edge-0 round has an
# absentee, edge-1 and cloud rounds see no fault.
DOWN_WORKER_PLAN = FaultPlan(seed=0, scripted_worker_down=((1, 1, 12),))

# Edge 0 is dark in every interval (intervals 1..4 for tau=3, T=12).
DOWN_EDGE_PLAN = FaultPlan(seed=0, scripted_edge_down=((0, 1, 4),))


def _run(mnist_split, plan, policy):
    train, test = mnist_split
    algo = HierAdMo(
        build_tiny_federation(train, test), eta=0.05, tau=3, pi=2
    )
    algo.attach_faults(plan, policy=policy)
    history = algo.run(12, eval_every=12)
    return algo, history


class TestPolicySemantics:
    def test_skip_round_abandons_affected_rounds(self, mnist_split):
        _, history = _run(mnist_split, DOWN_WORKER_PLAN, "skip_round")
        rounds = history.fault_summary["rounds"]
        # 4 edge-0 rounds skipped; 4 edge-1 + 2 cloud rounds pristine.
        assert rounds == {
            "pristine": 6, "degraded": 0, "skipped": 4, "total": 10
        }

    def test_renormalize_degrades_affected_rounds(self, mnist_split):
        _, history = _run(mnist_split, DOWN_WORKER_PLAN, "renormalize")
        rounds = history.fault_summary["rounds"]
        assert rounds == {
            "pristine": 6, "degraded": 4, "skipped": 0, "total": 10
        }
        # One worker absent at each of 12 iterations.
        assert history.fault_summary["events"]["fault.worker_drop"] == 12

    def test_carry_forward_degrades_affected_rounds(self, mnist_split):
        _, history = _run(mnist_split, DOWN_WORKER_PLAN, "carry_forward")
        rounds = history.fault_summary["rounds"]
        assert rounds == {
            "pristine": 6, "degraded": 4, "skipped": 0, "total": 10
        }

    def test_policies_differ_numerically(self, mnist_split):
        renorm, _ = _run(mnist_split, DOWN_WORKER_PLAN, "renormalize")
        carry, _ = _run(mnist_split, DOWN_WORKER_PLAN, "carry_forward")
        skip, _ = _run(mnist_split, DOWN_WORKER_PLAN, "skip_round")
        # carry_forward keeps the absent worker's frozen state in the
        # average; renormalize excludes it; skip_round never aggregates
        # edge 0 at all — three distinct trajectories.
        assert not np.allclose(renorm.x[0], carry.x[0], rtol=1e-6)
        assert not np.allclose(renorm.x[0], skip.x[0], rtol=1e-6)

    def test_down_worker_state_frozen_under_renormalize(self, mnist_split):
        algo, _ = _run(mnist_split, DOWN_WORKER_PLAN, "renormalize")
        initial = algo.fed.initial_params()
        # Worker 1 never trained and never received a redistribution.
        assert np.array_equal(algo.x[1], initial)

    def test_dark_edge_skips_and_degrades_cloud(self, mnist_split):
        _, history = _run(mnist_split, DOWN_EDGE_PLAN, "renormalize")
        rounds = history.fault_summary["rounds"]
        # Edge 0's 4 rounds skipped (dark); edge 1's 4 pristine; both
        # cloud rounds degrade because edge 0 is absent from them.
        assert rounds == {
            "pristine": 4, "degraded": 2, "skipped": 4, "total": 10
        }
        assert history.fault_summary["events"]["fault.edge_outage"] == 4


class TestStalenessEndToEnd:
    def test_stale_uploads_counted_and_finite(self, mnist_split):
        plan = FaultPlan(seed=0, msg_staleness=1.0, staleness_intervals=1)
        algo, history = _run(mnist_split, plan, "renormalize")
        # First cloud round (t=6) has nothing buffered; the second
        # (t=12) substitutes every row of both uploads (x and y for 2
        # edges = 4 stale rows).
        assert history.fault_summary["events"]["fault.msg_stale"] == 4
        assert np.isfinite(algo.x).all()
        assert np.isfinite(history.train_loss[1:]).all()


class TestAcceptanceRun:
    PLAN = FaultPlan(
        seed=42,
        worker_dropout=0.15,
        edge_outage=0.1,
        msg_loss=0.1,
        msg_duplication=0.05,
        msg_staleness=0.1,
        staleness_intervals=2,
    )

    def test_full_run_with_tracer_counters(self, mnist_split):
        """A seeded nonzero plan completes a traced run with finite
        losses; its realized events are tallied in ``fault_summary``."""
        train, test = mnist_split
        algo = HierAdMo(
            build_tiny_federation(train, test), eta=0.05, tau=3, pi=2
        )
        algo.attach_faults(self.PLAN, policy="renormalize")
        with telemetry.tracing():
            history = algo.run(18, eval_every=6)

        assert np.isfinite(history.train_loss[1:]).all()
        assert np.isfinite(history.test_loss).all()
        summary = history.fault_summary
        assert summary["rounds"]["total"] > 0
        assert sum(summary["events"].values()) > 0
        # The plan itself rides along in the digest for replayability.
        assert FaultPlan.from_dict(summary["plan"]) == self.PLAN
