"""Tests for partial-participation FedAvg."""

import numpy as np
import pytest

from repro.algorithms import FedAvg, participation
from repro.algorithms.participation import SampledFedAvg

from tests.conftest import build_tiny_federation


class TestSampling:
    def test_participant_count(self, tiny_federation):
        algo = SampledFedAvg(tiny_federation, eta=0.05, tau=4, rng=0)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        assert len(algo.active) == 2  # half of 4

    def test_at_least_one_participant(self, tiny_federation, monkeypatch):
        monkeypatch.setattr(participation, "PARTICIPATION", 0.01)
        algo = SampledFedAvg(tiny_federation, eta=0.05, tau=4, rng=0)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        assert len(algo.active) == 1

    def test_participants_resampled_each_round(self, tiny_federation):
        algo = SampledFedAvg(tiny_federation, eta=0.05, tau=2, rng=1)
        algo.history = tiny_federation.new_history("x", {})
        algo._setup()
        seen = set()
        for t in range(1, 21):
            algo._step(t)
            seen.add(tuple(algo.active))
        assert len(seen) > 1  # the subset changes over rounds

    def test_full_participation_equals_fedavg_server_model(
        self, federation_factory, monkeypatch
    ):
        monkeypatch.setattr(participation, "PARTICIPATION", 1.0)
        sampled = SampledFedAvg(
            federation_factory(), eta=0.05, tau=4, rng=0
        ).run(12, eval_every=4)
        plain = FedAvg(federation_factory(), eta=0.05, tau=4).run(
            12, eval_every=4
        )
        # Same participants (everyone) -> identical trajectories at
        # aggregation points; evaluation points align with tau here.
        assert np.allclose(
            sampled.test_loss, plain.test_loss, atol=1e-10
        )

    def test_learns(self, tiny_federation):
        history = SampledFedAvg(
            tiny_federation, eta=0.05, tau=5, rng=2
        ).run(100, eval_every=25)
        assert history.final_accuracy > 0.4

    def test_participant_stream_is_required(self, tiny_federation):
        # No default: a run never seeds its draws from OS entropy.
        with pytest.raises(TypeError, match="rng"):
            SampledFedAvg(tiny_federation)

    def test_config_records_participation(self, tiny_federation, monkeypatch):
        monkeypatch.setattr(participation, "PARTICIPATION", 0.25)
        algo = SampledFedAvg(tiny_federation, rng=0)
        assert algo.config()["participation"] == 0.25
