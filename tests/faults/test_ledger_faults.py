"""Fault accounting: ledger bytes.

Retried and duplicated messages are pure cost — no numeric effect — so
their entire footprint must show up in the books: CommLedger bytes grow
by exactly ``events x dim x 8 x payload_multiplier``.  The event
engine's wall-clock price of a retry is tested in
``tests/simulation/test_engine.py``.
"""

import numpy as np
import pytest

from repro.core import HierAdMo
from repro.faults import FaultPlan

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

