"""On-demand per-client data shards for virtual populations.

A million-client federation cannot pre-materialize a million
:class:`~repro.data.base.Dataset` objects.  A *shard provider* instead
answers ``shards(client_ids)`` lazily: only the clients of the currently
sampled cohort hold live arrays, everything else exists as a seed.

Two providers cover the library's needs:

* :class:`ListShards` wraps an explicit list of pre-built datasets —
  the bridge between the existing partitioners (``partition_xclass``
  etc.) and the virtual-population layer, used when the registered
  population is small enough to keep in memory (and by the
  golden-equivalence tests, which must serve byte-identical data).
* :class:`PrototypeShards` synthesizes each client's shard from shared
  class prototypes and a per-client child seed
  (``child_seed(seed, "shard", client_id)``), so a shard is a pure
  function of ``(provider config, client_id)``: rebuilding it after an
  eviction or a crash/resume yields bit-identical arrays.  Memory is
  O(prototypes + one shard), independent of the registered population.

Both providers expose ``num_clients``, ``max_shard_size``, the width of
the federation's sample-store rows, and ``shards(client_ids)``, which
yields a cohort's shards in order.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.data.base import Dataset
from repro.utils.rng import child_seed, child_seeds, default_rng_states
from repro.utils.validation import check_positive_int

__all__ = ["ListShards", "PrototypeShards"]


class ListShards:
    """Shard provider over an explicit list of pre-built datasets."""

    def __init__(self, datasets: list[Dataset]):
        if not datasets:
            raise ValueError("ListShards needs at least one dataset")
        self.datasets = list(datasets)

    @property
    def num_clients(self) -> int:
        return len(self.datasets)

    def shards(self, client_ids) -> Iterator[Dataset]:
        """The datasets of ``client_ids``, in order."""
        return (self.datasets[c] for c in np.asarray(client_ids).tolist())

    @property
    def max_shard_size(self) -> int:
        return max(map(len, self.datasets))


class PrototypeShards:
    """Synthetic shards generated on demand from shared class prototypes.

    The prototypes are drawn once from ``child_seed(seed, "prototypes")``
    (a Gaussian per class, the same construction as
    :func:`repro.data.synthetic.make_synthetic_mnist` uses for its class
    centers); each client's shard draws its labels and feature noise
    from ``child_seed(seed, "shard", client_id)``.  ``classes_per_client``
    restricts each client to a deterministic class subset for a
    non-i.i.d. population.
    """

    def __init__(
        self,
        num_clients: int,
        *,
        num_features: int = 32,
        num_classes: int = 10,
        samples_per_client: int = 64,
        classes_per_client: int | None = None,
        noise: float = 0.5,
        seed: int = 0,
    ):
        self.num_clients = check_positive_int(num_clients, "num_clients")
        self.num_features = check_positive_int(num_features, "num_features")
        self.num_classes = check_positive_int(num_classes, "num_classes")
        self.samples_per_client = check_positive_int(
            samples_per_client, "samples_per_client"
        )
        if classes_per_client is not None:
            check_positive_int(classes_per_client, "classes_per_client")
            classes_per_client = min(classes_per_client, num_classes)
        self.classes_per_client = classes_per_client
        self.noise = float(noise)
        self.seed = int(seed)
        proto_rng = np.random.default_rng(
            child_seed(self.seed, "prototypes")
        )
        self.prototypes = proto_rng.normal(
            size=(self.num_classes, self.num_features)
        )

    def shards(self, client_ids) -> Iterator[Dataset]:
        """The shards of ``client_ids``, in order, drawn as they are taken.

        Each client still draws from its own stream; the streams are
        seeded in one batch (:func:`~repro.utils.rng.default_rng_states`)
        and one generator is pointed at each of them in turn.  A caller
        that binds each shard in place of an old one holds one new
        shard at a time, not the whole batch.
        """
        ids = np.asarray(client_ids, dtype=np.int64).reshape(-1)
        outside = ids[(ids < 0) | (ids >= self.num_clients)]
        if outside.size:
            raise IndexError(
                f"client {outside[0]} out of range [0, {self.num_clients})"
            )
        states = default_rng_states(child_seeds(self.seed, "shard", ids=ids))
        return self._draw(ids.tolist(), states)

    def _draw(self, clients: list[int], states: list[dict]):
        rng = np.random.default_rng(0)
        all_classes = np.arange(self.num_classes)
        shape = (self.samples_per_client, self.num_features)
        for client, state in zip(clients, states):
            rng.bit_generator.state = state
            classes = all_classes
            if self.classes_per_client is not None:
                classes = rng.choice(
                    self.num_classes,
                    size=self.classes_per_client,
                    replace=False,
                )
            # The same draws as rng.choice(classes, size=...), without
            # its argument handling.
            y = classes[
                rng.integers(0, classes.size, size=self.samples_per_client)
            ]
            # In place, the same bits as prototypes[y] + noise * normal.
            x = rng.standard_normal(shape)
            x *= self.noise
            x += self.prototypes[y]
            yield Dataset(x, y, self.num_classes, name=f"shard{client}")

    @property
    def max_shard_size(self) -> int:
        return self.samples_per_client

    def test_set(self, num_samples: int) -> Dataset:
        """A shared held-out set drawn from the same prototypes."""
        check_positive_int(num_samples, "num_samples")
        rng = np.random.default_rng(child_seed(self.seed, "test"))
        y = rng.integers(self.num_classes, size=num_samples)
        x = self.prototypes[y] + self.noise * rng.normal(
            size=(num_samples, self.num_features)
        )
        return Dataset(x, y, self.num_classes, name="shard-test")
