"""Fault accounting (satellite S5): ledger bytes and timeline pricing.

Retried and duplicated messages are pure cost — no numeric effect — so
their entire footprint must show up in the books: CommLedger bytes grow
by exactly ``events x dim x 8 x payload_multiplier``, and the simulated
wall clock strictly increases with every retransmission.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import HierAdMo
from repro.faults import FaultPlan
from repro.simulation import (
    AsyncDeployment,
    RetryPolicy,
    Timeline,
    worker_device_pool,
)
from repro.simulation.links import LinkProfile
from repro.topology import Topology

from tests.conftest import build_tiny_federation

pytestmark = pytest.mark.faults


def _run_hieradmo(mnist_split, plan):
    train, test = mnist_split
    algo = HierAdMo(
        build_tiny_federation(train, test), eta=0.05, tau=3, pi=2
    )
    if plan is not None:
        algo.attach_faults(plan)
    history = algo.run(12, eval_every=12)
    return algo, history


class TestLedgerExactness:
    def test_duplicates_bill_exactly(self, mnist_split):
        """Bytes grow by dup_count x vector_bytes; numerics untouched."""
        _, baseline = _run_hieradmo(mnist_split, None)
        plan = FaultPlan(seed=3, msg_duplication=0.4)
        _, faulted = _run_hieradmo(mnist_split, plan)

        dups = faulted.fault_summary["events"]["fault.msg_dup"]
        assert dups > 0
        assert (
            faulted.comm.total_bytes - baseline.comm.total_bytes
            == dups * faulted.comm.vector_bytes
        )
        # Duplication is pure cost: the trajectory is unchanged.
        assert np.allclose(
            faulted.train_loss[1:], baseline.train_loss[1:],
            rtol=1e-12, atol=0,
        )

    def test_retries_bill_exactly(self, mnist_split):
        """With enough retries every message lands: cost-only faults."""
        _, baseline = _run_hieradmo(mnist_split, None)
        plan = FaultPlan(seed=4, msg_loss=0.25, max_retries=20)
        _, faulted = _run_hieradmo(mnist_split, plan)

        events = faulted.fault_summary["events"]
        # max_retries=20 makes an undelivered message (p = 0.25^21)
        # impossible in practice — every loss resolves into retries.
        assert events["fault.msg_loss"] == 0
        assert events["fault.retry"] > 0
        assert (
            faulted.comm.total_bytes - baseline.comm.total_bytes
            == events["fault.retry"] * faulted.comm.vector_bytes
        )
        assert np.allclose(
            faulted.train_loss[1:], baseline.train_loss[1:],
            rtol=1e-12, atol=0,
        )

    def test_vector_bytes_formula(self, mnist_split):
        """vector_bytes is dim x 8 x payload_multiplier (float64)."""
        _, history = _run_hieradmo(mnist_split, None)
        ledger = history.comm
        assert ledger.vector_bytes == (
            ledger.dim * 8 * ledger.payload_multiplier
        )


class TestTimelinePricing:
    LOSSLESS = LinkProfile(
        "det", bandwidth_mbps=10.0, rtt_seconds=0.01, jitter_sigma=0.0
    )

    def test_wall_clock_strictly_increases_with_retries(self):
        """Deterministic link, guaranteed loss: time is strictly
        monotone in the retry budget (timeout + backoff + resend)."""
        previous = None
        for max_retries in range(5):
            seconds, retries = self.LOSSLESS.transfer_time_with_retries(
                1e5,
                rng=0,
                loss_prob=1.0,
                policy=RetryPolicy(
                    max_retries=max_retries,
                    timeout_seconds=0.2,
                    backoff_factor=2.0,
                ),
            )
            assert retries == max_retries
            if previous is not None:
                assert seconds > previous
            previous = seconds

    def test_lossless_path_matches_plain_transfer(self):
        link = LinkProfile("jittery", bandwidth_mbps=10.0, rtt_seconds=0.01)
        seconds, retries = link.transfer_time_with_retries(1e5, rng=7)
        assert retries == 0
        assert seconds == link.transfer_time(1e5, rng=7)

    def test_three_tier_plan_slows_and_bills(self):
        topo = Topology.uniform(2, 2, 50)
        payload = 1e5
        deployment = AsyncDeployment(worker_device_pool(4), payload)
        with telemetry.tracing() as clean_tracer:
            clean = Timeline(topo, deployment).simulate(
                20, tau=5, pi=2, rng=3
            )
        with telemetry.tracing() as tracer:
            faulted = Timeline(
                topo, deployment, fault_plan=FaultPlan(msg_loss=0.5)
            ).simulate(20, tau=5, pi=2, rng=3)

        retries = tracer.counters["sim.three_tier.retries"]
        assert retries > 0
        assert faulted[-1] > clean[-1]
        # Retried bytes are billed on top of the nominal traffic.
        assert (
            tracer.counters["sim.three_tier.bytes"]
            - clean_tracer.counters["sim.three_tier.bytes"]
            == payload * retries
        )

    def test_two_tier_plan_slows_and_bills(self):
        topo = Topology.uniform(2, 2, 50)
        payload = 2e5
        deployment = AsyncDeployment(worker_device_pool(4), payload)
        with telemetry.tracing() as clean_tracer:
            clean = Timeline(topo, deployment, flat=True).simulate(
                20, tau=5, rng=6
            )
        with telemetry.tracing() as tracer:
            faulted = Timeline(
                topo,
                deployment,
                fault_plan=FaultPlan(msg_loss=0.5),
                retry_policy=RetryPolicy(max_retries=2),
                flat=True,
            ).simulate(20, tau=5, rng=6)

        retries = tracer.counters["sim.two_tier.retries"]
        assert retries > 0
        assert faulted[-1] > clean[-1]
        assert (
            tracer.counters["sim.two_tier.bytes"]
            - clean_tracer.counters["sim.two_tier.bytes"]
            == payload * retries
        )
