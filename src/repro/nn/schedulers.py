"""Learning-rate schedules.

Schedules return the learning rate for iteration ``t`` (0-indexed); an
algorithm's ``eta_schedule`` hook takes one, and every worker step reads
its η from it.  A centralized run is a one-worker federation, so it
takes the same hook.
"""

from __future__ import annotations

import math

from repro.utils.validation import check_positive, check_positive_int

__all__ = ["ConstantLR", "StepDecayLR", "CosineAnnealingLR", "WarmupLR"]


class ConstantLR:
    """Always ``base_lr``."""

    def __init__(self, base_lr: float):
        self.base_lr = check_positive(base_lr, "base_lr")

    def __call__(self, t: int) -> float:
        return self.base_lr


class StepDecayLR:
    """Multiply by ``factor`` every ``step_size`` iterations."""

    def __init__(self, base_lr: float, step_size: int, factor: float = 0.1):
        self.base_lr = check_positive(base_lr, "base_lr")
        self.step_size = check_positive_int(step_size, "step_size")
        self.factor = check_positive(factor, "factor")

    def __call__(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        return self.base_lr * self.factor ** (t // self.step_size)


class CosineAnnealingLR:
    """Cosine decay from ``base_lr`` to ``min_lr`` over ``total`` steps."""

    def __init__(self, base_lr: float, total: int, min_lr: float = 0.0):
        self.base_lr = check_positive(base_lr, "base_lr")
        self.total = check_positive_int(total, "total")
        if min_lr < 0 or min_lr > base_lr:
            raise ValueError(
                f"min_lr must be in [0, base_lr], got {min_lr}"
            )
        self.min_lr = float(min_lr)

    def __call__(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        progress = min(t, self.total) / self.total
        cosine = (1 + math.cos(math.pi * progress)) / 2
        return self.min_lr + (self.base_lr - self.min_lr) * cosine


class WarmupLR:
    """Linear warm-up over ``warmup`` steps, then delegate to ``after``."""

    def __init__(self, warmup: int, after):
        self.warmup = check_positive_int(warmup, "warmup")
        self.after = after

    def __call__(self, t: int) -> float:
        if t < 0:
            raise ValueError(f"t must be >= 0, got {t}")
        if t < self.warmup:
            return self.after(self.warmup) * (t + 1) / self.warmup
        return self.after(t)
