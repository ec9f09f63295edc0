"""Tests for the ``eta_schedule`` hook: any callable ``t -> eta``."""

import numpy as np
import pytest

from repro.algorithms import FedAvg
from repro.core import HierAdMo


class TestEtaSchedule:
    def test_schedule_applied_each_iteration(self, tiny_federation):
        algo = FedAvg(tiny_federation, eta=999.0, tau=4)
        observed = []

        def schedule(t):
            observed.append(t)
            return 0.01 + t * 0.001

        algo.eta_schedule = schedule
        algo.run(6, eval_every=6)
        assert observed == list(range(6))
        assert algo.eta == pytest.approx(0.01 + 5 * 0.001)

    def test_constant_schedule_matches_plain(self, federation_factory):
        plain = FedAvg(federation_factory(), eta=0.05, tau=4)
        plain_history = plain.run(12, eval_every=4)

        scheduled = FedAvg(federation_factory(), eta=999.0, tau=4)
        scheduled.eta_schedule = lambda t: 0.05
        scheduled_history = scheduled.run(12, eval_every=4)
        assert np.allclose(
            plain_history.test_loss, scheduled_history.test_loss, atol=1e-12
        )

    def test_decay_with_hieradmo(self, tiny_federation):
        algo = HierAdMo(tiny_federation, eta=0.05, tau=4, pi=2)
        algo.eta_schedule = lambda t: 0.05 * 0.5 ** (t // 8)
        history = algo.run(16, eval_every=8)
        # Last applied at t-1 = 15: 15 // 8 = 1 decay step.
        assert algo.eta == pytest.approx(0.025)
        assert np.isfinite(history.test_loss).all()

    def test_invalid_scheduled_value_rejected(self, tiny_federation):
        algo = FedAvg(tiny_federation, eta=0.05, tau=4)
        algo.eta_schedule = lambda t: 0.0
        with pytest.raises(ValueError, match="scheduled eta"):
            algo.run(2, eval_every=2)
