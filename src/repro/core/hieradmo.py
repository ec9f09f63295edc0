"""HierAdMo — the paper's Algorithm 1, line for line.

Three rules, which :class:`~repro.core.base.FLAlgorithm`'s three-tier
schedule runs over ``T = K·τ = P·τ·π`` local iterations:

* the worker rule, every iteration: a NAG step (lines 5–6);
* the edge rule, every ``τ`` iterations: each edge node adapts γℓ
  (line 10, eqs. 6–7), aggregates worker momentum (line 11), applies
  the edge momentum update (lines 12–13) and redistributes (lines
  14–15);
* the cloud rule, every ``τ·π`` iterations: the cloud averages the
  edges' aggregated worker momenta and edge models and redistributes
  both all the way down (lines 18–23).

``HierAdMoR`` (the paper's HierAdMo-R ablation) is HierAdMo with a fixed
edge momentum factor instead of the adaptive one.
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import AdaptiveGammaController
from repro.core.base import FLAlgorithm
from repro.core.federation import Federation
from repro.faults import block_rows
from repro.utils.validation import check_fraction, check_positive_int

__all__ = ["HierAdMo", "HierAdMoR"]


class HierAdMo(FLAlgorithm):
    """Adaptive two-level momentum hierarchical FL (Algorithm 1)."""

    name = "HierAdMo"
    # Every exchange ships the model and its momentum state (x and y).
    payload_multiplier = 2.0
    _records_gammas = True

    # Full training state for checkpoint/resume: worker and edge
    # parameter/momentum matrices, the γℓ agreement controller's
    # accumulators, and the per-edge smoothed γℓ plus μ-traces.
    # ``_grads`` is scratch (refilled every iteration) and excluded.
    CKPT_ARRAYS = (
        "x",
        "y",
        "edge_x_plus",
        "edge_y_plus",
        "edge_y_minus",
        "controller.grad_sums",
        "controller.momentum_sums",
        "controller._boundary",
    )
    CKPT_VALUES = (
        "_gamma_state",
        "velocity_norms",
        "gradient_step_norms",
    )
    # Per-client rows the population binder carries across cohort
    # evictions: the worker NAG momentum and the γℓ-controller's
    # per-worker accumulators (x is adopted from the broadcast).
    CLIENT_STATE = (
        "y",
        "controller.grad_sums",
        "controller.momentum_sums",
        "controller._boundary",
    )

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        gamma: float = 0.5,
        tau: int = 10,
        pi: int = 2,
        adaptive: bool = True,
        gamma_edge: float = 0.5,
        angle_mode: str = "velocity",
        gamma_smoothing: float = 0.3,
        track_mu: bool = False,
    ):
        super().__init__(federation, eta=eta)
        self.gamma = check_fraction(gamma, "gamma")
        self.tau = check_positive_int(tau, "tau")
        self.pi = check_positive_int(pi, "pi")
        self.adaptive = bool(adaptive)
        self.gamma_edge = check_fraction(gamma_edge, "gamma_edge")
        self.angle_mode = angle_mode
        if not 0.0 < gamma_smoothing <= 1.0:
            raise ValueError(
                f"gamma_smoothing must be in (0, 1], got {gamma_smoothing}"
            )
        # EMA weight for the per-round adapted factor.  The raw eq.-7 rule
        # (gamma_smoothing=1.0) flaps between 0.99 and 0 once the edge
        # momentum starts overshooting, which eventually destabilizes long
        # runs; the EMA converges to the equilibrium of that process —
        # empirically right at the best fixed γℓ (see DESIGN.md §6).
        self.gamma_smoothing = float(gamma_smoothing)
        # When enabled, records ‖γ·v‖ and ‖η·∇F‖ per worker iteration so
        # the trajectory constant μ (eq. 30) can be estimated with
        # repro.theory.estimate_mu.
        self.track_mu = bool(track_mu)

    def config(self) -> dict:
        return {
            "eta": self.eta,
            "gamma": self.gamma,
            "tau": self.tau,
            "pi": self.pi,
            "adaptive": self.adaptive,
            "gamma_edge": self.gamma_edge,
            "angle_mode": self.angle_mode,
            "gamma_smoothing": self.gamma_smoothing,
        }

    # ------------------------------------------------------------------
    def _setup(self) -> None:
        fed = self.fed
        # Worker state (lines 1), stacked (num_workers, dim): x⁰ identical
        # everywhere, y⁰ = x⁰.
        self.x = fed.initial_worker_matrix()
        self.y = self.x.copy()
        # Edge state (line 2), stacked (num_edges, dim): x⁰ℓ₊ = x⁰,
        # y⁰ℓ₊ = x⁰ℓ₊.
        self.edge_x_plus = fed.initial_edge_matrix()
        self.edge_y_plus = self.edge_x_plus.copy()
        # Latest aggregated worker momentum per edge (for the cloud step).
        self.edge_y_minus = self.edge_x_plus.copy()
        # Per-iteration gradient matrix, filled row by row by the oracle.
        self._grads = np.empty((fed.num_workers, fed.dim))
        self.controller = AdaptiveGammaController(
            fed.num_workers, fed.dim, self.angle_mode
        )
        # Per-edge smoothed γℓ, started from a conservative prior of 0:
        # the edge momentum only ramps up under sustained agreement, which
        # protects the fragile early rounds at large worker momentum.
        self._gamma_state: list[float] = [0.0] * fed.num_edges
        # μ-estimation traces (eq. 30), filled only when track_mu is set.
        self.velocity_norms: list[float] = []
        self.gradient_step_norms: list[float] = []

    # ------------------------------------------------------------------
    def _local_update(self, rows) -> None:
        """Lines 5–6 (NAG) on the ``rows`` workers, feeding eq. 6's sums."""
        g = self._grads[rows]
        y_prev = self.y[rows]
        y_new = self.x[rows] - self.eta * g  # line 5
        velocity = y_new - y_prev
        self.controller.accumulate_step(rows, g, y_prev, velocity)
        if self.track_mu:
            self.velocity_norms.extend(
                np.linalg.norm(self.gamma * velocity, axis=1).tolist()
            )
            self.gradient_step_norms.extend(
                np.linalg.norm(self.eta * g, axis=1).tolist()
            )
        self.x[rows] = y_new + self.gamma * velocity  # line 6
        self.y[rows] = y_new

    def _adapt_edge_gamma(self, edge: int, rows, weights) -> float:
        """Line 10: adapt γℓ (or keep it fixed for HierAdMo-R)."""
        if not self.adaptive:
            return self.gamma_edge
        measured = self.controller.gamma_for_edge(rows, weights)
        previous = self._gamma_state[edge]
        if measured < previous:
            # Disagreement: apply eq. (7) immediately — "scale down the
            # momentum when disagreement occurs".
            gamma_edge = measured
        else:
            # Agreement: ramp up cautiously (EMA), so one noisy high
            # cosine cannot trigger a 0.99 extrapolation.
            gamma_edge = (
                (1.0 - self.gamma_smoothing) * previous
                + self.gamma_smoothing * measured
            )
        self._gamma_state[edge] = gamma_edge
        return gamma_edge

    def _edge_momentum(
        self, edge: int, weights, y_members, x_members, gamma_edge: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lines 11–13 at ``edge``; returns the ``(y, x)`` to redistribute.

        ``y_members`` / ``x_members`` are the aggregated workers' rows,
        aligned with ``weights``.
        """
        # Line 11: worker momentum edge aggregation (one GEMV).
        y_minus = weights @ y_members
        # Line 12: edge momentum update (written exactly as the paper,
        # although it algebraically equals the aggregated worker model).
        x_plus_prev = self.edge_x_plus[edge]
        y_plus = x_plus_prev - weights @ (x_plus_prev - x_members)
        # Line 13: edge model update.
        x_plus = y_plus + gamma_edge * (y_plus - self.edge_y_plus[edge])
        self.edge_y_plus[edge] = y_plus
        self.edge_x_plus[edge] = x_plus
        self.edge_y_minus[edge] = y_minus
        return y_minus, x_plus

    def _edge_merge(self, edge: int, rows: slice, outcome) -> float:
        """Lines 8–15; returns the edge's γℓ.

        Aggregates the outcome's members, then resets and redistributes
        to the workers that get the result.
        """
        agg, weights = outcome.agg_rows, outcome.agg_weights
        x, y = self.x[rows], self.y[rows]
        gamma_edge = self._adapt_edge_gamma(
            edge, block_rows(rows, agg), weights
        )
        self.controller.reset_workers(block_rows(rows, outcome.receivers))
        y_minus, x_plus = self._edge_momentum(
            edge, weights, y[agg], x[agg], gamma_edge
        )
        # Lines 14–15: redistribution (row broadcast).
        y[outcome.receivers] = y_minus
        x[outcome.receivers] = x_plus
        return gamma_edge

    def _cloud_merge(self, outcome) -> None:
        """Lines 17–23."""
        agg, weights = outcome.agg_rows, outcome.agg_weights
        y_up = self._cloud_upload("cloud.y", self.edge_y_minus)
        x_up = self._cloud_upload("cloud.x", self.edge_x_plus)
        y_bar = weights @ y_up[agg]  # line 18
        x_bar = weights @ x_up[agg]  # line 19
        self.edge_y_minus[outcome.receivers] = y_bar  # line 20
        self.edge_x_plus[outcome.receivers] = x_bar  # line 21
        # Lines 22–23 push the merged state down through the receiving
        # edges to their up workers.
        workers = self._cloud_push(outcome.receivers)
        self.y[workers] = y_bar
        self.x[workers] = x_bar


class HierAdMoR(HierAdMo):
    """HierAdMo-R: the reduced version with a fixed edge momentum factor."""

    name = "HierAdMo-R"

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        gamma: float = 0.5,
        tau: int = 10,
        pi: int = 2,
        gamma_edge: float = 0.5,
    ):
        super().__init__(
            federation,
            eta=eta,
            gamma=gamma,
            tau=tau,
            pi=pi,
            adaptive=False,
            gamma_edge=gamma_edge,
        )
