"""Virtual-client registry: population metadata without live state.

A :class:`ClientRegistry` describes a registered population of clients
by *metadata only* — which edge each client reports to and how much
data it holds — so a million registered clients cost a few scalars per
client (or O(1) for the uniform constructor), never a ``dim``-sized
parameter row.  Live rows exist only for the currently materialized
cohort (see :mod:`repro.population.binder`).

Per-client randomness is derived, not stored: client ``c`` of a
federation seeded with ``seed`` draws its mini-batches from
``child_seed(seed, "sampler", c)`` — exactly the stream
:class:`~repro.core.federation.Federation` would hand worker ``c`` in a
fully materialized run, which is what makes full-participation virtual
runs bit-exact against the classic construction.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["ClientRegistry"]


class ClientRegistry:
    """Metadata for a registered (possibly virtual) client population."""

    def __init__(
        self,
        num_edges: int,
        clients_per_edge: int,
        *,
        weights: np.ndarray | None = None,
    ):
        """Uniform grouped layout: edge ``ℓ`` owns the contiguous client
        block ``[ℓ·clients_per_edge, (ℓ+1)·clients_per_edge)``.

        ``weights`` (optional, shape ``(num_clients,)``) are per-client
        sample counts used for aggregation weights; ``None`` means every
        client holds the same amount of data (the registry then stores
        no per-client arrays at all).
        """
        self.num_edges = check_positive_int(num_edges, "num_edges")
        self.clients_per_edge = check_positive_int(
            clients_per_edge, "clients_per_edge"
        )
        self.num_clients = self.num_edges * self.clients_per_edge
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (self.num_clients,):
                raise ValueError(
                    f"weights shape {weights.shape} != ({self.num_clients},)"
                )
            if not (weights > 0).all():
                raise ValueError("client weights must be positive")
        self.weights = weights

    @classmethod
    def from_shards(
        cls, shards, num_edges: int, *, uniform: bool = False
    ) -> "ClientRegistry":
        """Registry over a shard provider, split evenly across edges.

        Weights come from ``shards.shard_size`` unless ``uniform`` (or
        every shard reports the same size, in which case no per-client
        array is stored).
        """
        num_clients = shards.num_clients
        check_positive_int(num_edges, "num_edges")
        if num_clients % num_edges:
            raise ValueError(
                f"{num_clients} clients do not split evenly over "
                f"{num_edges} edges"
            )
        weights = None
        if not uniform:
            sizes = np.asarray(
                [shards.shard_size(c) for c in range(num_clients)],
                dtype=np.float64,
            )
            if not np.all(sizes == sizes[0]):
                weights = sizes
        return cls(num_edges, num_clients // num_edges, weights=weights)

    # ------------------------------------------------------------------
    def clients_of_edge(self, edge: int) -> range:
        """The (contiguous) client-id range registered under ``edge``."""
        if not 0 <= edge < self.num_edges:
            raise IndexError(
                f"edge {edge} out of range [0, {self.num_edges})"
            )
        start = edge * self.clients_per_edge
        return range(start, start + self.clients_per_edge)

    def __repr__(self) -> str:
        return (
            f"ClientRegistry(edges={self.num_edges}, "
            f"clients={self.num_clients})"
        )
