"""Flat-vector views of parameter lists: the layout oracle.

The FL algorithms operate on a model's parameters as one contiguous
``float64`` vector, served zero-copy by
:class:`repro.nn.module.FlatParamBuffer` (see docs/architecture.md §1.1).
These converters between a list of arbitrarily-shaped arrays and that
flat vector are the reference the buffer's layout is tested against.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flatten_arrays", "unflatten_like", "zeros_like_flat"]


def flatten_arrays(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenate ``arrays`` into one 1-D float64 vector.

    Raises ``ValueError`` on an empty list, because a zero-parameter model is
    almost certainly a construction bug.
    """
    if not arrays:
        raise ValueError("cannot flatten an empty parameter list")
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def unflatten_like(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Split flat vector ``flat`` into arrays shaped like ``like``.

    Raises ``ValueError`` if the total size does not match.
    """
    flat = np.asarray(flat, dtype=np.float64).ravel()
    total = sum(a.size for a in like)
    if flat.size != total:
        raise ValueError(
            f"flat vector has {flat.size} elements but template needs {total}"
        )
    out = []
    offset = 0
    for template in like:
        size = template.size
        out.append(flat[offset : offset + size].reshape(template.shape))
        offset += size
    return out


def zeros_like_flat(arrays: list[np.ndarray]) -> np.ndarray:
    """Return a zero flat vector matching the total size of ``arrays``."""
    return np.zeros(sum(a.size for a in arrays), dtype=np.float64)
