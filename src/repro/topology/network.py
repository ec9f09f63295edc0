"""Three-tier topology: one cloud, L edge nodes, N workers.

Captures the paper's §III-A structure — which workers sit under which edge
node and how many samples each holds — and derives the aggregation weights
``D_{i,ℓ}/D_ℓ`` (worker within edge) and ``D_ℓ/D`` (edge within cloud)
used throughout Algorithm 1.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive_int

__all__ = ["Topology"]


class Topology:
    """Static description of the client–edge–cloud hierarchy."""

    def __init__(self, sample_counts: list[list[int]]):
        """``sample_counts[ℓ][i]`` is ``D_{i,ℓ}`` for worker i of edge ℓ."""
        if not sample_counts or any(not edge for edge in sample_counts):
            raise ValueError("topology needs at least one edge with one worker")
        for edge in sample_counts:
            for count in edge:
                check_positive_int(count, "sample count")
        self.sample_counts = [list(map(int, edge)) for edge in sample_counts]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, num_edges: int, workers_per_edge: int, samples_per_worker: int
    ) -> "Topology":
        """Balanced topology: L edges × Cℓ workers × D samples each."""
        check_positive_int(num_edges, "num_edges")
        check_positive_int(workers_per_edge, "workers_per_edge")
        check_positive_int(samples_per_worker, "samples_per_worker")
        return cls(
            [[samples_per_worker] * workers_per_edge for _ in range(num_edges)]
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """L, the number of edge nodes."""
        return len(self.sample_counts)

    @property
    def num_workers(self) -> int:
        """N, the total worker count."""
        return sum(len(edge) for edge in self.sample_counts)

    def workers_in_edge(self, edge: int) -> int:
        """Cℓ, the number of workers under edge ℓ."""
        return len(self.sample_counts[edge])

    # ------------------------------------------------------------------
    # Sample totals and weights
    # ------------------------------------------------------------------
    def edge_samples(self, edge: int) -> int:
        """Dℓ = Σᵢ D_{i,ℓ}."""
        return sum(self.sample_counts[edge])

    @property
    def total_samples(self) -> int:
        """D = Σℓ Dℓ."""
        return sum(self.edge_samples(edge) for edge in range(self.num_edges))

    def worker_weights(self, edge: int) -> np.ndarray:
        """Within-edge weights D_{i,ℓ}/Dℓ (sum to 1)."""
        counts = np.asarray(self.sample_counts[edge], dtype=np.float64)
        return counts / counts.sum()

    def edge_weights(self) -> np.ndarray:
        """Cloud weights Dℓ/D (sum to 1)."""
        totals = np.asarray(
            [self.edge_samples(edge) for edge in range(self.num_edges)],
            dtype=np.float64,
        )
        return totals / totals.sum()

    def global_worker_weights(self) -> np.ndarray:
        """Flat weights D_{i,ℓ}/D over all workers, edge-major order."""
        counts = np.asarray(
            [
                count
                for edge in self.sample_counts
                for count in edge
            ],
            dtype=np.float64,
        )
        return counts / counts.sum()

    # ------------------------------------------------------------------
    # Index mapping
    # ------------------------------------------------------------------
    def edge_worker_indices(self, edge: int) -> list[int]:
        """Flat indices of all workers under edge ℓ."""
        start = sum(self.workers_in_edge(e) for e in range(edge))
        return list(range(start, start + self.workers_in_edge(edge)))

    def __repr__(self) -> str:
        return (
            f"Topology(edges={self.num_edges}, workers={self.num_workers}, "
            f"samples={self.total_samples})"
        )
