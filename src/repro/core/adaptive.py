"""Online adaptive edge-momentum factor (paper eqs. 6–7).

At each edge aggregation ``k`` the edge node computes, per worker, the
cosine of the angle between the *negative accumulated gradient* and the
*accumulated momentum* over the last edge interval, takes the
data-weighted average over its workers (eq. 6), and clips the result to
``[0, 0.99]`` (eq. 7).  The clipped value is the edge-momentum weight γℓ:
disagreement (obtuse angle) zeroes the edge momentum, near-perfect
agreement saturates at 0.99 to avoid divergence.

Two readings of the momentum accumulator are supported (DESIGN.md §6):

* ``"velocity"`` (default) — the momentum is the NAG velocity
  ``v^t = y^t − y^{t−1}`` (the paper's Appendix-A equivalent form, where
  the footnote's "worker momenta" language is meaningful).  The first
  local step after a synchronization is excluded from the sums: its
  velocity straddles the redistribution boundary and contains the edge
  node's own momentum jump rather than the worker's training direction,
  which otherwise produces a γℓ = 0.99 ⇄ 0 oscillation.
* ``"y"`` — the literal main-text sums ``Σ y^t`` over the NAG auxiliary
  sequence.  In high dimension the static component of ``y`` (the model
  weights themselves) makes the cosine concentrate near 0, so this
  reading effectively disables the edge momentum; it is kept for
  fidelity and for the ablation bench.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import get_tracer

__all__ = ["cosine_agreement", "adapt_gamma", "AdaptiveGammaController"]

GAMMA_CAP = 0.99


def cosine_agreement(
    grad_sums,
    momentum_sums,
    weights: np.ndarray,
) -> float:
    """Eq. (6): weighted average of per-worker cos⟨−Σ∇F, Σmomentum⟩.

    ``grad_sums`` / ``momentum_sums`` are ``(workers, dim)`` matrices (or
    lists of flat vectors).  Workers whose accumulated vectors are
    (numerically) zero are *dropped*: their weight is excluded from the
    sum rather than renormalized over the remaining workers — there is
    no direction to agree or disagree with, so they contribute 0.  The
    same holds for workers whose norms overflowed to a non-finite value.
    """
    grads = np.asarray(grad_sums, dtype=np.float64)
    momenta = np.asarray(momentum_sums, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not grads.shape[0] == momenta.shape[0] == weights.shape[0]:
        raise ValueError(
            f"mismatched lengths: {grads.shape[0]} grads, "
            f"{momenta.shape[0]} momenta, {weights.shape[0]} weights"
        )
    # The norms of a diverging run overflow; the mask drops them.
    with np.errstate(over="ignore"):
        grad_norms = np.linalg.norm(grads, axis=1)
        momentum_norms = np.linalg.norm(momenta, axis=1)
    valid = (
        np.isfinite(grad_norms)
        & np.isfinite(momentum_norms)
        & (grad_norms >= 1e-12)
        & (momentum_norms >= 1e-12)
    )
    if not valid.any():
        return 0.0
    dots = np.einsum("ij,ij->i", -grads[valid], momenta[valid])
    cosines = dots / (grad_norms[valid] * momentum_norms[valid])
    # Guard against floating-point drift outside [-1, 1].
    return float(weights[valid] @ np.clip(cosines, -1.0, 1.0))


def adapt_gamma(cosine: float, cap: float = GAMMA_CAP) -> float:
    """Eq. (7): γℓ = 0 for cos≤0, cos for 0<cos<cap, cap for cos≥cap."""
    if not -1.0 <= cosine <= 1.0:
        raise ValueError(f"cosine must be in [-1, 1], got {cosine}")
    if cosine <= 0.0:
        return 0.0
    return min(cosine, cap)


class AdaptiveGammaController:
    """Per-edge γℓ adaptation with interval accumulators.

    One controller instance serves all edges: the accumulators live in
    stacked ``(num_workers, dim)`` matrices, filled either one worker at
    a time via :meth:`accumulate` or for a selection of workers at once
    via :meth:`accumulate_step`; each edge aggregation calls
    :meth:`gamma_for_edge` then :meth:`reset_workers`.
    """

    def __init__(self, num_workers: int, dim: int, mode: str = "velocity"):
        if mode not in ("velocity", "y"):
            raise ValueError(f"mode must be 'velocity' or 'y', got {mode!r}")
        self.mode = mode
        self.grad_sums = np.zeros((num_workers, dim))
        self.momentum_sums = np.zeros((num_workers, dim))
        # In velocity mode the step right after a sync is excluded (its
        # velocity carries the redistribution jump, not training signal).
        self._boundary = np.ones(num_workers, dtype=bool)

    def accumulate(
        self,
        worker: int,
        grad: np.ndarray,
        y_prev: np.ndarray,
        velocity: np.ndarray,
    ) -> None:
        """Record one local iteration of ``worker``.

        ``y_prev`` is the worker's y before the update (the literal eq.-6
        accumulator); ``velocity`` is ``y_new − y_prev``.
        """
        if self.mode == "velocity":
            if self._boundary[worker]:
                self._boundary[worker] = False
                return
            self.grad_sums[worker] += grad
            self.momentum_sums[worker] += velocity
        else:
            self.grad_sums[worker] += grad
            self.momentum_sums[worker] += y_prev

    def accumulate_step(
        self,
        rows,
        grads: np.ndarray,
        y_prev: np.ndarray,
        velocities: np.ndarray,
    ) -> None:
        """Record one local iteration of the workers ``rows`` selects.

        ``rows`` is a row selector (``slice(None)`` or flat worker ids);
        the matrices hold the selected rows' values in selection order.
        Equivalent to calling :meth:`accumulate` per selected worker.
        Unselected (absent) workers take no step: their boundary flags,
        like their accumulators, stay untouched.
        """
        if self.mode == "y":
            self.grad_sums[rows] += grads
            self.momentum_sums[rows] += y_prev
            return
        active = ~self._boundary[rows]
        if active.all():
            self.grad_sums[rows] += grads
            self.momentum_sums[rows] += velocities
            return
        taking = np.arange(len(self._boundary))[rows][active]
        self.grad_sums[taking] += grads[active]
        self.momentum_sums[taking] += velocities[active]
        self._boundary[rows] = False

    def gamma_for_edge(
        self, worker_indices, weights: np.ndarray
    ) -> float:
        """γℓ for one edge from its workers' accumulators (eqs. 6–7).

        ``worker_indices`` may be a list of flat ids or a slice.
        """
        tracer = get_tracer()
        with tracer.span("adapt_gamma"):
            cosine = cosine_agreement(
                self.grad_sums[worker_indices],
                self.momentum_sums[worker_indices],
                weights,
            )
            gamma = adapt_gamma(cosine)
        if tracer.enabled:
            tracer.observe("adaptive.cosine", cosine)
            tracer.observe("adaptive.gamma", gamma)
        return gamma

    def reset_workers(self, worker_indices) -> None:
        """Zero the accumulators after an edge aggregation."""
        self.grad_sums[worker_indices] = 0.0
        self.momentum_sums[worker_indices] = 0.0
        self._boundary[worker_indices] = True
