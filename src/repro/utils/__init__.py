"""Shared utilities: seeded RNG streams, atomic writes, validation."""

from repro.utils.io import atomic_write_text, replace_into
from repro.utils.rng import (
    RngStreams,
    child_seed,
    child_seeds,
    default_rng_states,
    make_rng,
)
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_positive,
    check_positive_int,
    check_probability,
)

__all__ = [
    "RngStreams",
    "child_seed",
    "child_seeds",
    "default_rng_states",
    "make_rng",
    "replace_into",
    "atomic_write_text",
    "check_fraction",
    "check_in_range",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
