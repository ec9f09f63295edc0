"""FedProx (extension baseline, Li et al. MLSys'20).

Not one of the paper's comparison points, but the standard
heterogeneity-robust baseline readers will ask about: local steps
minimize ``F_i(x) + (μ/2)‖x − w_global‖²``, i.e. plain SGD plus a
proximal pull toward the last global model, which limits client drift
between aggregations.  μ = 0 reduces exactly to FedAvg (tested).
"""

from __future__ import annotations

from repro.algorithms.twotier import TwoTierAlgorithm
from repro.core.federation import Federation
from repro.utils.validation import check_positive

__all__ = ["FedProx"]


class FedProx(TwoTierAlgorithm):
    """Two-tier FL with a proximal term against client drift."""

    name = "FedProx"

    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + ("global_params",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        mu: float = 0.1,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = float(mu)

    def config(self) -> dict:
        return {**super().config(), "mu": self.mu}

    def _setup(self) -> None:
        super()._setup()
        self.global_params = self.fed.initial_params()

    def _local_update(self, rows) -> None:
        proximal = self.mu * (self.x[rows] - self.global_params)
        self.x[rows] -= self.eta * (self._grads[rows] + proximal)

    def _server_update(self, outcome) -> None:
        self.global_params = self._round_average(self.x, outcome)
        self.x[outcome.receivers] = self.global_params
