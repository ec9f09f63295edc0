"""Argument validation helpers with consistent error messages.

Used at every public constructor so misuse fails loudly at configuration
time instead of producing NaNs thousands of iterations later.
"""

from __future__ import annotations

import numbers

__all__ = [
    "check_positive",
    "check_positive_int",
    "check_probability",
    "check_fraction",
    "check_quorum",
]


def check_positive(value: float, name: str) -> float:
    """Validate ``value > 0`` and return it as float."""
    if not isinstance(value, numbers.Real) or not value > 0:
        raise ValueError(f"{name} must be a positive number, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is an integer >= 1 and return it as int."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Validate ``0 <= value <= 1`` and return it as float."""
    if not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def check_fraction(value: float, name: str) -> float:
    """Validate ``0 <= value < 1`` (momentum-factor style) and return it.

    The paper requires momentum factors strictly below 1 to avoid
    divergence (it clips the adaptive factor at 0.99).
    """
    if not isinstance(value, numbers.Real) or not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must be in [0, 1), got {value!r}")
    return float(value)


def check_quorum(value: float, name: str = "quorum") -> float:
    """Validate an aggregation quorum fraction: ``0 < value <= 1``.

    The lower bound is exclusive — a zero quorum would aggregate
    without waiting for any upload, which no tier supports.
    """
    if not isinstance(value, numbers.Real) or not 0.0 < value <= 1.0:
        raise ValueError(
            f"{name} must be in (0, 1] — at least one upload must be "
            f"awaited — got {value!r}"
        )
    return float(value)
