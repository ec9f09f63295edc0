"""Two-tier baseline algorithms (workers directly under the cloud).

These are the paper's categories ③ (two-tier momentum FL) and ④ (FedAvg).
All of them ignore the edge level of the federation: aggregation runs over
*all* workers with global data weights every ``tau`` iterations.  For the
paper's fair comparison, callers set this ``tau`` equal to the three-tier
algorithms' ``τ·π``.

Update rules implemented (one class per published algorithm):

* :class:`FedAvg`       — local SGD + periodic model averaging [4].
* :class:`FedNAG`       — local Nesterov momentum; model *and* momentum
  are averaged and redistributed at each round [21].
* :class:`FedMom`       — server Polyak momentum over the round
  pseudo-gradient [19].
* :class:`SlowMo`       — local SGD + server "slow momentum" with slow
  learning rate α [20].
* :class:`Mime`         — workers apply the *server's* momentum statistic
  in every local step; the server refreshes the statistic with the
  average gradient at the aggregated model (MimeLite-style) [22].
* :class:`FedADC`       — drift control: workers seed their local momentum
  buffer from the server's accumulated momentum each round [24].
* :class:`FastSlowMo`   — combined worker NAG (fast) + server slow
  momentum [23].
"""

from __future__ import annotations

import numpy as np

from repro.core.base import FLAlgorithm
from repro.core.federation import Federation
from repro.faults import RoundOutcome, degrade_round
from repro.monitoring.monitor import get_monitor
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
    """Shared plumbing: stacked (num_workers, dim) models + global averaging."""

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

    def _average_models(self) -> np.ndarray:
        return self.fed.global_average_workers(self.x)

    def _broadcast(self, params: np.ndarray) -> None:
        self.x[:] = params

    def _global_params(self) -> np.ndarray:
        return self._average_models()

    def _record_round(self, outcome: RoundOutcome, t: int) -> None:
        """Ledger entry (and monitor event) for one aggregation round.

        Two-tier workers talk to the cloud directly, so a round bills
        the transfer events its :class:`RoundOutcome` realized on the
        edge↔cloud (WAN) tier: one upload and one download per
        participant when no fault touched it.  This is the one
        chokepoint every two-tier algorithm's round passes through, so
        the monitor's ``cloud_round`` event is emitted here for all of
        them.
        """
        self.history.comm.record_edge_cloud(outcome.events)
        monitor = get_monitor()
        if monitor.enabled:
            monitor.emit(
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

    @staticmethod
    def _round_average(
        matrix: np.ndarray, outcome: RoundOutcome
    ) -> np.ndarray:
        """Round aggregate of ``matrix`` under the resolved membership."""
        return outcome.agg_weights @ matrix[outcome.agg_rows]

    def _local_sgd_iteration(self) -> float:
        """One plain SGD step on every up worker; returns their mean loss."""
        with get_tracer().span("worker_step"):
            rows = self._iteration_rows()
            mean_loss = self._gradient_iteration(self.x, rows)
            self.x[rows] -= self.eta * self._grads[rows]
            return mean_loss

    def _nag_iteration(self) -> float:
        """One local NAG step per up worker (needs ``gamma`` and ``y``)."""
        with get_tracer().span("worker_step"):
            rows = self._iteration_rows()
            mean_loss = self._gradient_iteration(self.x, rows)
            y_new = self.x[rows] - self.eta * self._grads[rows]
            self.x[rows] = y_new + self.gamma * (y_new - self.y[rows])
            self.y[rows] = y_new
            return mean_loss


class FedAvg(TwoTierAlgorithm):
    """McMahan et al.: local SGD, average the models every τ iterations."""

    name = "FedAvg"

    def _step(self, t: int) -> float:
        loss = self._local_sgd_iteration()
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    self.x[outcome.receivers] = self._round_average(
                        self.x, outcome
                    )
                    self._record_round(outcome, t)
        return loss


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

    def _step(self, t: int) -> float:
        loss = self._nag_iteration()
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    recv = outcome.receivers
                    self.x[recv] = self._round_average(self.x, outcome)
                    self.y[recv] = self._round_average(self.y, outcome)
                    self._record_round(outcome, t)
        return loss


class FedMom(TwoTierAlgorithm):
    """Huo et al.: server-side Polyak momentum on the round pseudo-gradient.

    Per round: Δ = w_prev − mean(worker models); m ← β·m + Δ;
    w ← w_prev − m.  β=0 reduces to FedAvg (unit-tested).
    """

    name = "FedMom"
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
    ):
        super().__init__(federation, eta=eta, tau=tau)
        self.beta = check_fraction(beta, "beta")

    def config(self) -> dict:
        return {**super().config(), "beta": self.beta}

    def _setup(self) -> None:
        super()._setup()
        self.server_params = self.fed.initial_params()
        self.server_momentum = np.zeros(self.fed.dim)

    def _step(self, t: int) -> float:
        loss = self._local_sgd_iteration()
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    delta = self.server_params - self._round_average(
                        self.x, outcome
                    )
                    self.server_momentum = (
                        self.beta * self.server_momentum + delta
                    )
                    self.server_params = (
                        self.server_params - self.server_momentum
                    )
                    self.x[outcome.receivers] = self.server_params
                    self._record_round(outcome, t)
        return loss

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()


class SlowMo(TwoTierAlgorithm):
    """Wang et al. ICLR'20: slow momentum over rounds.

    Per round: d = (w_prev − mean(models)) / η  (pseudo-gradient);
    u ← β·u + d; w ← w_prev − α·η·u.  α=1, β=0 reduces to FedAvg.
    """

    name = "SlowMo"
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "server_params",
        "slow_momentum",
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
        self.slow_momentum = np.zeros(self.fed.dim)

    def _step(self, t: int) -> float:
        loss = self._local_sgd_iteration()
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    pseudo_grad = (
                        self.server_params
                        - self._round_average(self.x, outcome)
                    ) / self.eta
                    self.slow_momentum = (
                        self.beta * self.slow_momentum + pseudo_grad
                    )
                    self.server_params = (
                        self.server_params
                        - self.alpha * self.eta * self.slow_momentum
                    )
                    self.x[outcome.receivers] = self.server_params
                    self._record_round(outcome, t)
        return loss

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()


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

    def _step(self, t: int) -> float:
        grads = self._grads
        with get_tracer().span("worker_step"):
            rows = self._iteration_rows()
            loss = self._gradient_iteration(self.x, rows)
            self.x[rows] -= self.eta * (
                (1.0 - self.beta) * grads[rows]
                + self.beta * self.server_state
            )
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    x_bar = self._round_average(self.x, outcome)
                    # Only the reachable workers can evaluate a fresh
                    # gradient at the aggregate for the refresh.
                    present = outcome.present
                    self.fed.gradient_all(
                        np.broadcast_to(x_bar, grads.shape),
                        rows=present,
                        out=grads,
                    )
                    weights = self.fed.global_worker_w[present]
                    mean_grad = (weights / weights.sum()) @ grads[present]
                    self.server_state = (
                        (1.0 - self.beta) * mean_grad
                        + self.beta * self.server_state
                    )
                    self.x[outcome.receivers] = x_bar
                    self._record_round(outcome, t)
        return loss


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

    def _step(self, t: int) -> float:
        with get_tracer().span("worker_step"):
            rows = self._iteration_rows()
            loss = self._gradient_iteration(self.x, rows)
            momentum = (
                self.beta * self.local_momentum[rows] + self._grads[rows]
            )
            self.local_momentum[rows] = momentum
            self.x[rows] -= self.eta * momentum
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    avg = self._round_average(self.x, outcome)
                    pseudo_grad = (
                        self.server_params - avg
                    ) / (self.eta * self.tau)
                    self.server_momentum = (
                        self.beta * self.server_momentum
                        + (1.0 - self.beta) * pseudo_grad
                    )
                    self.server_params = avg
                    recv = outcome.receivers
                    self.x[recv] = self.server_params
                    self.local_momentum[recv] = self.server_momentum
                    self._record_round(outcome, t)
        return loss

    def _global_params(self) -> np.ndarray:
        return self._average_models()


class FastSlowMo(TwoTierAlgorithm):
    """Yang et al. TAI'22: combined worker (fast) and server (slow) momenta.

    Workers run NAG locally (as FedNAG); every round the server aggregates
    model and momentum, then applies a SlowMo-style slow-momentum step to
    the aggregated model before redistribution.
    """

    name = "FastSlowMo"
    # Ships the worker model and its NAG momentum every round.
    payload_multiplier = 2.0
    CKPT_ARRAYS = TwoTierAlgorithm.CKPT_ARRAYS + (
        "y",
        "server_params",
        "slow_momentum",
    )
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
        super().__init__(federation, eta=eta, tau=tau)
        self.gamma = check_fraction(gamma, "gamma")
        self.beta = check_fraction(beta, "beta")
        self.alpha = check_positive(alpha, "alpha")

    def config(self) -> dict:
        return {
            **super().config(),
            "gamma": self.gamma,
            "beta": self.beta,
            "alpha": self.alpha,
        }

    def _setup(self) -> None:
        super()._setup()
        self.y = self.x.copy()
        self.server_params = self.fed.initial_params()
        self.slow_momentum = np.zeros(self.fed.dim)

    def _step(self, t: int) -> float:
        loss = self._nag_iteration()
        if t % self.tau == 0:
            with get_tracer().span("cloud_agg"):
                outcome = self._round_outcome()
                if not outcome.skip:
                    x_bar = self._round_average(self.x, outcome)
                    y_bar = self._round_average(self.y, outcome)
                    pseudo_grad = (self.server_params - x_bar) / self.eta
                    self.slow_momentum = (
                        self.beta * self.slow_momentum + pseudo_grad
                    )
                    self.server_params = (
                        self.server_params
                        - self.alpha * self.eta * self.slow_momentum
                    )
                    recv = outcome.receivers
                    self.x[recv] = self.server_params
                    self.y[recv] = y_bar
                    self._record_round(outcome, t)
        return loss

    def _global_params(self) -> np.ndarray:
        return self.server_params.copy()
