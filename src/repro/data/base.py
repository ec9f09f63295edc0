"""Dataset container shared by all generators and partitioners."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "train_test_split"]


@dataclass
class Dataset:
    """Features + integer labels (+ class count) for one data holder.

    ``x`` is either flat features (N, D) or image tensors (N, C, H, W);
    ``y`` is an int64 vector of labels in [0, num_classes).
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "dataset"

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"x has {self.x.shape[0]} samples but y has {self.y.shape[0]}"
            )
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError(
                f"labels out of range [0, {self.num_classes})"
            )

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def feature_shape(self) -> tuple:
        return self.x.shape[1:]

    @property
    def num_features(self) -> int:
        return int(np.prod(self.x.shape[1:]))

    def subset(self, indices: np.ndarray) -> "Dataset":
        """New Dataset holding the given sample indices (copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return Dataset(
            self.x[indices].copy(),
            self.y[indices].copy(),
            self.num_classes,
            self.name,
        )

    def flattened(self) -> "Dataset":
        """View with features collapsed to (N, D), for convex models."""
        return Dataset(
            self.x.reshape(self.x.shape[0], -1),
            self.y,
            self.num_classes,
            self.name,
        )


def train_test_split(
    dataset: Dataset,
    test_fraction: float = 0.25,
    rng: "np.random.Generator | int | None" = None,
) -> tuple[Dataset, Dataset]:
    """Shuffle and split one corpus into (train, test).

    Train and test must come from the *same* generated corpus so they share
    class prototypes; generating them with different seeds would produce
    disjoint distributions.
    """
    from repro.utils.rng import make_rng

    if not 0.0 < test_fraction < 1.0:
        raise ValueError(
            f"test_fraction must be in (0, 1), got {test_fraction}"
        )
    rng = make_rng(rng)
    order = rng.permutation(len(dataset))
    num_test = max(1, int(round(test_fraction * len(dataset))))
    if num_test >= len(dataset):
        raise ValueError("split leaves no training samples")
    return dataset.subset(order[num_test:]), dataset.subset(order[:num_test])
