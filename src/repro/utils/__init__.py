"""Shared utilities: seeded RNG streams, parameter flattening, validation."""

from repro.utils.flatten import (
    flatten_arrays,
    unflatten_like,
    zeros_like_flat,
)
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
    "flatten_arrays",
    "unflatten_like",
    "zeros_like_flat",
    "replace_into",
    "atomic_write_text",
    "check_fraction",
    "check_in_range",
    "check_positive",
    "check_positive_int",
    "check_probability",
]
