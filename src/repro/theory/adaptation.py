"""Theorem 5: why adaptation tightens the bound.

Appendix E compares the *expected* edge-momentum factor under two regimes:

* **adaptive** (HierAdMo): γℓ = clip(cos θ, 0, cap) with
  cos θ ~ U(−1, 1) ⇒ E[γℓ] ≈ 1/4, Var[γℓ] ≈ 5/48;
* **fixed** (HierAdMo-R): γ̃ℓ ~ U(0, 1) ⇒ E[γ̃ℓ] = 1/2, Var = 1/12.

Because Theorem 2's ``s(τ)`` is linear in γℓ, the smaller expectation
gives a strictly tighter ``j`` and hence a tighter Theorem-4 bound.  The
functions here compute those moments exactly (including the 0.99-cap
correction the paper drops) and for arbitrary cosine distributions via
quadrature, so the property tests can verify the paper's claim and its
robustness beyond the uniform example.  Only the quadrature helper needs
scipy, and it imports ``scipy.integrate`` when called.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.adaptive import GAMMA_CAP, adapt_gamma

__all__ = [
    "adaptive_gamma_moments",
    "fixed_gamma_moments",
    "moments_for_distribution",
    "theorem5_gap_ratio",
]


def adaptive_gamma_moments(cap: float = GAMMA_CAP) -> tuple[float, float]:
    """(mean, variance) of clip(cosθ, 0, cap) for cosθ ~ U(−1, 1).

    With cap = 1 this is exactly (1/4, 5/48) — the paper's Appendix-E
    values; the 0.99 cap perturbs them by O((1−cap)²).
    """
    if not 0.0 < cap <= 1.0:
        raise ValueError(f"cap must be in (0, 1], got {cap}")
    # P(cos <= 0) = 1/2 contributes 0.  Density 1/2 on (0, cap), and the
    # mass (1-cap)/2 at the cap.
    mean = cap**2 / 4.0 + cap * (1.0 - cap) / 2.0
    second = cap**3 / 6.0 + cap**2 * (1.0 - cap) / 2.0
    return mean, second - mean**2


def fixed_gamma_moments() -> tuple[float, float]:
    """(mean, variance) of γ̃ℓ ~ U(0, 1): (1/2, 1/12)."""
    return 0.5, 1.0 / 12.0


def moments_for_distribution(
    density: Callable[[float], float],
    support: tuple[float, float] = (-1.0, 1.0),
    cap: float = GAMMA_CAP,
) -> tuple[float, float]:
    """Moments of clip(cosθ, 0, cap) for an arbitrary cosθ density.

    The paper notes "the same proof process holds for other
    distributions"; this quadrature version makes that claim checkable.
    ``scipy.integrate`` is imported on the first call, so importing
    :mod:`repro` does not load scipy.
    """
    from scipy import integrate

    low, high = support
    if not low < high:
        raise ValueError(f"invalid support {support}")

    def weighted(power: int) -> float:
        value, _ = integrate.quad(
            lambda c: adapt_gamma(min(1.0, max(-1.0, c)), cap) ** power
            * density(c),
            low,
            high,
            limit=200,
        )
        return value

    total_mass, _ = integrate.quad(density, low, high, limit=200)
    if not np.isclose(total_mass, 1.0, atol=1e-6):
        raise ValueError(f"density integrates to {total_mass:.6f}, not 1")
    mean = weighted(1)
    return mean, weighted(2) - mean**2


def theorem5_gap_ratio(cap: float = GAMMA_CAP) -> float:
    """E[γℓ adaptive] / E[γ̃ℓ fixed] — below 1 proves the tighter bound.

    s(τ) (and hence j and the Theorem-4 bound) is linear in γℓ, so the
    ratio of expected momentum factors is the ratio of the expected
    momentum-displacement contributions.
    """
    adaptive_mean, _ = adaptive_gamma_moments(cap)
    fixed_mean, _ = fixed_gamma_moments()
    return adaptive_mean / fixed_mean
