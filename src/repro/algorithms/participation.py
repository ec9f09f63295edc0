"""Partial worker participation (extension).

The paper's setting is cross-silo FL with full participation (§III-A),
but cross-device deployments sample a fraction of workers per round.
:class:`SampledFedAvg` implements the standard scheme on the two-tier
baseline: each round, a random subset of workers trains from the current
global model; the server averages only the participants (re-normalized
data weights).  Useful for studying how the paper's comparisons shift
under device sampling.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.twotier import TwoTierAlgorithm
from repro.core.federation import Federation
from repro.faults import degrade_round
from repro.utils.rng import make_rng
from repro.utils.validation import check_in_range

__all__ = ["SampledFedAvg"]


class SampledFedAvg(TwoTierAlgorithm):
    """FedAvg with a random participant fraction per round."""

    name = "SampledFedAvg"

    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + ("server_params",)
    CKPT_VALUES = ("active",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        participation: float = 0.5,
        rng=None,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        check_in_range(participation, "participation", 0.0, 1.0)
        if participation <= 0.0:
            raise ValueError("participation must be > 0")
        self.participation = float(participation)
        self.rng = make_rng(rng)

    def config(self) -> dict:
        return {**super().config(), "participation": self.participation}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self._sample_round()

    def _sample_round(self) -> None:
        """Draw this round's participants (at least one)."""
        num_workers = self.fed.num_workers
        count = max(1, int(round(self.participation * num_workers)))
        chosen = self.rng.choice(num_workers, size=count, replace=False)
        self.active = sorted(int(i) for i in chosen)
        # Participants start from the server model.
        self.x[self.active] = self.server_params

    def _iteration_rows(self) -> np.ndarray:
        """This iteration's training set: sampled ∩ up (never empty)."""
        up = self._up_mask
        if up is None:
            return np.asarray(self.active)
        rows = [worker for worker in self.active if up[worker]]
        return np.asarray(rows or self.active[:1])

    def _round_outcome(self):
        """Only the sampled workers exchange state this round."""
        active = np.asarray(self.active)
        weights = self.fed.global_worker_w[active]
        up = self._up_mask
        return degrade_round(
            self.faults,
            self.degradation,
            weights / weights.sum(),
            None if up is None else up[active],
        )

    def _server_update(self, outcome) -> None:
        # A skipped round never gets here: this round's participants
        # train on until the next scheduled aggregation.
        self.server_params = self._round_average(
            self.x[self.active], outcome
        )
        self._sample_round()

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()

    # ``_setup`` consumes one sampling draw; restoring the recorded RNG
    # state afterwards (extras are restored last) rewinds it exactly.
    def checkpoint_extra(self) -> dict:
        return {"rng": self.rng.bit_generator.state}

    def restore_extra(self, extra: dict) -> None:
        self.rng.bit_generator.state = extra["rng"]
