"""Per-worker reference for ``AdaptiveGammaController.accumulate_step``."""

from __future__ import annotations

import numpy as np


def accumulate(
    controller,
    worker: int,
    grad: np.ndarray,
    y_prev: np.ndarray,
    velocity: np.ndarray,
) -> None:
    """Record one local iteration of ``worker`` on ``controller``.

    ``y_prev`` is the worker's y before the update (the literal eq.-6
    accumulator); ``velocity`` is ``y_new − y_prev``.  In velocity mode
    the first step after a reset is skipped.
    """
    if controller.mode == "velocity":
        if controller._boundary[worker]:
            controller._boundary[worker] = False
            return
        controller.grad_sums[worker] += grad
        controller.momentum_sums[worker] += velocity
    else:
        controller.grad_sums[worker] += grad
        controller.momentum_sums[worker] += y_prev
