"""Tests for the two-tier baselines (reductions + invariants + learning)."""

import numpy as np
import pytest

from repro.algorithms import (
    FastSlowMo,
    FedADC,
    FedAvg,
    FedMom,
    FedNAG,
    Mime,
    SlowMo,
)

from tests.conftest import build_tiny_federation


class TestFedAvg:
    def test_workers_identical_after_round(self, tiny_federation):
        algo = FedAvg(tiny_federation, eta=0.05, tau=4)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 5):
            algo._step(t)
        for worker in range(1, 4):
            assert np.array_equal(algo.x[0], algo.x[worker])

    def test_workers_diverge_between_rounds(self, tiny_federation):
        algo = FedAvg(tiny_federation, eta=0.05, tau=10)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 4):
            algo._step(t)
        assert not np.array_equal(algo.x[0], algo.x[1])

    def test_learns(self, tiny_federation):
        history = FedAvg(tiny_federation, eta=0.05, tau=5).run(
            80, eval_every=20
        )
        assert history.final_accuracy > 0.5

    def test_round_counter(self, tiny_federation):
        history = FedAvg(tiny_federation, eta=0.05, tau=5).run(
            20, eval_every=20
        )
        assert history.comm.edge_cloud_rounds == 4


class TestReductionsToFedAvg:
    """Momentum baselines with zeroed momentum must equal FedAvg exactly."""

    def test_fedmom_beta_zero(self, federation_factory):
        a = FedMom(federation_factory(), eta=0.05, tau=4, beta=0.0).run(
            12, eval_every=4
        )
        b = FedAvg(federation_factory(), eta=0.05, tau=4).run(
            12, eval_every=4
        )
        assert np.allclose(a.test_loss, b.test_loss, atol=1e-10)

    def test_slowmo_neutral(self, federation_factory):
        a = SlowMo(
            federation_factory(), eta=0.05, tau=4, beta=0.0, alpha=1.0
        ).run(12, eval_every=4)
        b = FedAvg(federation_factory(), eta=0.05, tau=4).run(
            12, eval_every=4
        )
        assert np.allclose(a.test_loss, b.test_loss, atol=1e-10)

    def test_fednag_gamma_zero(self, federation_factory):
        a = FedNAG(federation_factory(), eta=0.05, tau=4, gamma=0.0).run(
            12, eval_every=4
        )
        b = FedAvg(federation_factory(), eta=0.05, tau=4).run(
            12, eval_every=4
        )
        assert np.allclose(a.test_loss, b.test_loss, atol=1e-10)

    def test_fastslowmo_neutral_equals_fednag(self, federation_factory):
        a = FastSlowMo(
            federation_factory(), eta=0.05, tau=4, gamma=0.5, beta=0.0,
            alpha=1.0,
        ).run(12, eval_every=4)
        b = FedNAG(federation_factory(), eta=0.05, tau=4, gamma=0.5).run(
            12, eval_every=4
        )
        assert np.allclose(a.test_loss, b.test_loss, atol=1e-10)


def _relative_gap(a, b) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class TestSlowMoIsFedMom:
    """SlowMo with α=1 and a constant η is algebraically FedMom.

    SlowMo keeps ``u ← β·u + (w − x̄)/η`` and steps ``w ← w − α·η·u``.
    With η constant, ``η·u`` follows FedMom's ``m ← β·m + (w − x̄)``
    from the same zero start, so ``u = m/η`` and α=1 gives ``w − m``:
    the two train identically (their Table II rows match).  A decaying
    learning rate or α≠1 breaks the identity.
    """

    ETA = 0.05

    def _run_pair(self, factory, *, alpha=1.0, eta_schedule=None):
        fedmom = FedMom(factory(), eta=self.ETA, tau=4, beta=0.5)
        slowmo = SlowMo(
            factory(), eta=self.ETA, tau=4, beta=0.5, alpha=alpha
        )
        histories = []
        for algo in (fedmom, slowmo):
            algo.eta_schedule = eta_schedule
            histories.append(algo.run(48, eval_every=8))
        return (fedmom, slowmo), histories

    def test_constant_eta_alpha_one_is_fedmom(self, federation_factory):
        (fedmom, slowmo), (a, b) = self._run_pair(federation_factory)
        assert _relative_gap(
            slowmo.server_params, fedmom.server_params
        ) <= 1e-12
        assert _relative_gap(
            self.ETA * slowmo.server_momentum, fedmom.server_momentum
        ) <= 1e-12
        np.testing.assert_allclose(b.test_loss, a.test_loss, rtol=1e-12)
        np.testing.assert_allclose(
            b.train_loss[1:], a.train_loss[1:], rtol=1e-12
        )

    @pytest.mark.parametrize(
        "alpha, eta_schedule",
        [(1.0, lambda t: 0.05 * 0.95**t), (0.5, None)],
        ids=["decaying-eta", "alpha-half"],
    )
    def test_identity_needs_constant_eta_and_unit_alpha(
        self, federation_factory, alpha, eta_schedule
    ):
        (fedmom, slowmo), (a, b) = self._run_pair(
            federation_factory, alpha=alpha, eta_schedule=eta_schedule
        )
        assert _relative_gap(
            slowmo.server_params, fedmom.server_params
        ) > 1e-3
        assert not np.allclose(b.test_loss, a.test_loss, rtol=1e-3)


class TestServerMomentumAlgorithms:
    @pytest.mark.parametrize("cls", [FedMom, SlowMo, Mime, FedADC])
    def test_learns(self, tiny_federation, cls):
        history = cls(tiny_federation, eta=0.05, tau=5, beta=0.4).run(
            80, eval_every=20
        )
        assert history.final_accuracy > 0.5

    def test_fedmom_momentum_state_updates(self, tiny_federation):
        algo = FedMom(tiny_federation, eta=0.05, tau=2, beta=0.5)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        assert not algo.server_momentum.any()
        for t in range(1, 3):
            algo._step(t)
        assert algo.server_momentum.any()

    def test_mime_server_state_frozen_within_round(self, tiny_federation):
        algo = Mime(tiny_federation, eta=0.05, tau=5, beta=0.5)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        state_before = algo.server_state.copy()
        algo._step(1)  # no aggregation at t=1
        assert np.array_equal(algo.server_state, state_before)
        for t in range(2, 6):
            algo._step(t)
        assert not np.array_equal(algo.server_state, state_before)

    def test_fedadc_local_momentum_seeded_from_server(self, tiny_federation):
        algo = FedADC(tiny_federation, eta=0.05, tau=2, beta=0.5)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 3):
            algo._step(t)
        for worker in range(4):
            assert np.array_equal(
                algo.local_momentum[worker], algo.server_momentum
            )


class TestFedNAG:
    def test_momentum_aggregated_and_redistributed(self, tiny_federation):
        algo = FedNAG(tiny_federation, eta=0.05, tau=3, gamma=0.5)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        for t in range(1, 4):
            algo._step(t)
        for worker in range(1, 4):
            assert np.array_equal(algo.y[0], algo.y[worker])

    def test_beats_fedavg_on_convex(self, federation_factory):
        """Worker momentum accelerates convex convergence (paper: ③ > ④)."""
        nag = FedNAG(federation_factory(), eta=0.02, tau=5, gamma=0.7).run(
            100, eval_every=100
        )
        avg = FedAvg(federation_factory(), eta=0.02, tau=5).run(
            100, eval_every=100
        )
        assert nag.test_loss[-1] < avg.test_loss[-1]


class TestValidation:
    def test_invalid_parameters(self, tiny_federation):
        with pytest.raises(ValueError):
            FedAvg(tiny_federation, tau=0)
        with pytest.raises(ValueError):
            FedMom(tiny_federation, beta=1.0)
        with pytest.raises(ValueError):
            SlowMo(tiny_federation, alpha=0.0)
        with pytest.raises(ValueError):
            FedNAG(tiny_federation, gamma=-0.1)
