"""Two-tier baseline algorithms (workers directly under the cloud).

These are the paper's categories ③ (two-tier momentum FL) and ④ (FedAvg).
All of them ignore the edge level of the federation: aggregation runs over
*all* workers with global data weights every ``tau`` iterations.  For the
paper's fair comparison, callers set this ``tau`` equal to the three-tier
algorithms' ``τ·π``.

Each algorithm is a worker rule (``_local_update``) plus a server rule
(``_server_update``) on :class:`TwoTierAlgorithm`'s one-round schedule,
the worker/server momentum decomposition HierMo and FedNAG use to
describe these baselines.  The defaults are local SGD and the model
average:

* :class:`FedAvg`       — the defaults [4].
* :class:`FedNAG`       — local Nesterov momentum; model *and* momentum
  are averaged and redistributed at each round [21].
* :class:`SlowMo`       — local SGD + server "slow momentum" with slow
  learning rate α [20].
* :class:`FedMom`       — server Polyak momentum over the round
  pseudo-gradient [19]: SlowMo's server rule at unit scale.
* :class:`Mime`         — workers apply the *server's* momentum statistic
  in every local step; the server refreshes the statistic with the
  average gradient at the aggregated model (MimeLite-style) [22].
* :class:`FedADC`       — drift control: workers seed their local momentum
  buffer from the server's accumulated momentum each round [24].
* :class:`FastSlowMo`   — FedNAG's worker rule (fast) + SlowMo's server
  rule (slow) [23].
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FLAlgorithm
from repro.core.federation import Federation
from repro.faults import RoundOutcome, degrade_round
from repro.telemetry import get_tracer
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
)

__all__ = [
    "TwoTierAlgorithm",
    "FedAvg",
    "FedNAG",
    "FedMom",
    "SlowMo",
    "Mime",
    "FedADC",
    "FastSlowMo",
]


class TwoTierAlgorithm(FLAlgorithm):
    """One global round every ``tau`` iterations around a server rule."""

    # Checkpoint state: the stacked worker models; subclasses extend
    # with their momentum buffers / server vectors.
    CKPT_ARRAYS = ("x",)

    def __init__(self, federation: Federation, *, eta: float = 0.01, tau: int = 20):
        super().__init__(federation, eta=eta)
        self.tau = check_positive_int(tau, "tau")

    def config(self) -> dict:
        return {"eta": self.eta, "tau": self.tau}

    def _setup(self) -> None:
        self.x = self.fed.initial_worker_matrix()
        self._grads = np.empty_like(self.x)

    def _aggregate(self, t: int) -> None:
        """The global round at ``t``, if one is scheduled.

        Two-tier workers talk to the cloud directly, so a round bills
        the transfer events its :class:`RoundOutcome` realized on the
        edge↔cloud (WAN) tier: one upload and one download per
        participant when no fault touched it.  It emits the monitor's
        ``cloud_round`` event.
        """
        if t % self.tau:
            return
        tracer = get_tracer()
        with tracer.span("cloud_agg"):
            outcome = self._round_outcome()
            if outcome.skip:
                return
            self._server_update(outcome)
            self.history.comm.record_edge_cloud(outcome.events)
            if tracer.monitored:
                tracer.emit(
                    "cloud_round",
                    iteration=t,
                    tier="cloud",
                    participants=len(outcome.agg_weights),
                    transfers=int(outcome.events),
                )

    def _round_outcome(self) -> RoundOutcome:
        """This round's membership over all workers under the fault plan."""
        return degrade_round(
            self.faults,
            self.degradation,
            self.fed.global_worker_w,
            self._up_mask,
        )

    def _server_update(self, outcome: RoundOutcome) -> None:
        """The server rule: the receivers adopt the model average."""
        self.x[outcome.receivers] = self._round_average(self.x, outcome)

    @staticmethod
    def _round_average(
        matrix: np.ndarray, outcome: RoundOutcome
    ) -> np.ndarray:
        """Round aggregate of ``matrix`` under the resolved membership."""
        return outcome.agg_weights @ matrix[outcome.agg_rows]


class FedAvg(TwoTierAlgorithm):
    """McMahan et al.: local SGD, average the models every τ iterations."""

    name = "FedAvg"


class FedNAG(TwoTierAlgorithm):
    """Yang et al. TPDS'22: local NAG; aggregate model and momentum.

    This is exactly the two-tier special case HierAdMo's Theorem 1 reduces
    to, so it doubles as an analytical cross-check in the tests.
    """

    name = "FedNAG"
    payload_multiplier = 2.0  # ships model + momentum each round
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + ("y",)
    # The NAG momentum row follows the client across cohort evictions.
    CLIENT_STATE = ("y",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        gamma: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.gamma = check_fraction(gamma, "gamma")

    def config(self) -> dict:
        return {**super().config(), "gamma": self.gamma}

    def _setup(self) -> None:
        super()._setup()
        self.y = self.x.copy()

    def _local_update(self, rows) -> None:
        """One NAG step per selected worker."""
        y_new = self.x[rows] - self.eta * self._grads[rows]
        self.x[rows] = y_new + self.gamma * (y_new - self.y[rows])
        self.y[rows] = y_new

    def _server_update(self, outcome: RoundOutcome) -> None:
        recv = outcome.receivers
        self.x[recv] = self._round_average(self.x, outcome)
        self.y[recv] = self._round_average(self.y, outcome)


class SlowMo(TwoTierAlgorithm):
    """Wang et al. ICLR'20: slow momentum over rounds.

    Per round: d = (w_prev − mean(models)) / η  (pseudo-gradient);
    u ← β·u + d; w ← w_prev − α·η·u.  α=1, β=0 reduces to FedAvg.
    """

    name = "SlowMo"
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "server_params",
        "server_momentum",
    )

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
        alpha: float = 1.0,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")
        self.alpha = check_positive(alpha, "alpha")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta, "alpha": self.alpha}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.server_momentum = np.zeros(self.fed.dim)

    def _pseudo_gradient_scale(self) -> float:
        """The η the round pseudo-gradient is divided by."""
        return self.eta

    def _server_update(self, outcome: RoundOutcome) -> None:
        scale = self._pseudo_gradient_scale()
        pseudo_grad = (
            self.server_params - self._round_average(self.x, outcome)
        ) / scale
        self.server_momentum = self.beta * self.server_momentum + pseudo_grad
        self.server_params = (
            self.server_params - self.alpha * scale * self.server_momentum
        )
        self.x[outcome.receivers] = self.server_params

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()


class FedMom(SlowMo):
    """Huo et al.: server-side Polyak momentum on the round pseudo-gradient.

    Per round: Δ = w_prev − mean(worker models); m ← β·m + Δ;
    w ← w_prev − m.  β=0 reduces to FedAvg (unit-tested).  This is
    SlowMo's server rule with α=1 at unit scale: ``Δ/1.0`` and
    ``1.0·1.0·m`` are exact, so the two forms agree bit for bit.
    """

    name = "FedMom"

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau, beta=beta)

    def config(self) -> dict:
        return {**TwoTierAlgorithm.config(self), "beta": self.beta}

    def _pseudo_gradient_scale(self) -> float:
        return 1.0


class Mime(TwoTierAlgorithm):
    """Karimireddy et al.: mimic centralized SGD-with-momentum.

    The server momentum statistic ``s`` is *frozen during local steps*:
    every worker update is ``x ← x − η((1−β)·g + β·s)``.  At each round
    the server refreshes ``s ← (1−β)·ḡ + β·s`` with the average worker
    gradient evaluated at the aggregated model (MimeLite's approximation).
    """

    name = "Mime"
    # Broadcasts the server statistic alongside the model; the round's
    # extra gradient exchange is folded into the same multiplier.
    payload_multiplier = 2.0
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + ("server_state",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta}

    def _setup(self) -> None:
        super()._setup()
        self.server_state = np.zeros(self.fed.dim)

    def _local_update(self, rows) -> None:
        self.x[rows] -= self.eta * (
            (1.0 - self.beta) * self._grads[rows]
            + self.beta * self.server_state
        )

    def _server_update(self, outcome: RoundOutcome) -> None:
        grads = self._grads
        x_bar = self._round_average(self.x, outcome)
        # Only the reachable workers can evaluate a fresh gradient at
        # the aggregate for the refresh.
        present = outcome.present
        self.fed.gradient_all(
            np.broadcast_to(x_bar, grads.shape), rows=present, out=grads
        )
        weights = self.fed.global_worker_w[present]
        mean_grad = (weights / weights.sum()) @ grads[present]
        self.server_state = (
            (1.0 - self.beta) * mean_grad + self.beta * self.server_state
        )
        self.x[outcome.receivers] = x_bar


class FedADC(TwoTierAlgorithm):
    """Ozfatura et al. ISIT'21: accelerated FL with drift control.

    The server keeps a momentum over round pseudo-gradients; each round it
    broadcasts the momentum and workers *seed their local momentum buffer*
    with it, so local updates start aligned with the global direction
    (the drift-control mechanism).  Locally workers run Polyak-momentum
    SGD on that buffer.
    """

    name = "FedADC"
    # Broadcasts the server momentum alongside the model each round.
    payload_multiplier = 2.0
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "server_params",
        "server_momentum",
        "local_momentum",
    )
    # The drift-control buffer is per-client state across cohorts.
    CLIENT_STATE = ("local_momentum",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        beta: float = 0.5,
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.server_momentum = np.zeros(self.fed.dim)
        self.local_momentum = np.zeros((self.fed.num_workers, self.fed.dim))

    def _local_update(self, rows) -> None:
        momentum = self.beta * self.local_momentum[rows] + self._grads[rows]
        self.local_momentum[rows] = momentum
        self.x[rows] -= self.eta * momentum

    def _server_update(self, outcome: RoundOutcome) -> None:
        avg = self._round_average(self.x, outcome)
        pseudo_grad = (self.server_params - avg) / (self.eta * self.tau)
        self.server_momentum = (
            self.beta * self.server_momentum
            + (1.0 - self.beta) * pseudo_grad
        )
        self.server_params = avg
        recv = outcome.receivers
        self.x[recv] = self.server_params
        self.local_momentum[recv] = self.server_momentum


class FastSlowMo(SlowMo):
    """Yang et al. TAI'22: combined worker (fast) and server (slow) momenta.

    Workers run FedNAG's NAG rule locally; every round the server
    aggregates model and momentum, then applies SlowMo's slow-momentum
    step to the aggregated model before redistribution.
    """

    name = "FastSlowMo"
    # Ships the worker model and its NAG momentum every round.
    payload_multiplier = 2.0
    CKPT_ARRAYS = SlowMo.CKPT_ARRAYS + ("y",)
    # The fast (worker NAG) momentum row follows the client.
    CLIENT_STATE = ("y",)

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        tau: int = 20,
        gamma: float = 0.5,
        beta: float = 0.5,
        alpha: float = 1.0,
    ):
        super().__init__(federation, eta=eta, tau=tau, beta=beta, alpha=alpha)
        self.gamma = check_fraction(gamma, "gamma")

    def config(self) -> dict:
        return {
            **TwoTierAlgorithm.config(self),
            "gamma": self.gamma,
            "beta": self.beta,
            "alpha": self.alpha,
        }

    def _setup(self) -> None:
        super()._setup()
        self.y = self.x.copy()

    _local_update = FedNAG._local_update

    def _server_update(self, outcome: RoundOutcome) -> None:
        y_bar = self._round_average(self.y, outcome)
        super()._server_update(outcome)
        self.y[outcome.receivers] = y_bar
