"""Three-tier topology: one cloud, L edge nodes, N workers.

Captures the paper's §III-A structure — which workers sit under which edge
node and how many samples each holds — and derives the aggregation weights
``D_{i,ℓ}/D_ℓ`` (worker within edge) and ``D_ℓ/D`` (edge within cloud)
used throughout Algorithm 1.  :meth:`Topology.to_networkx` is the only
code that needs networkx, and it imports networkx when called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.utils.validation import check_positive_int

if TYPE_CHECKING:
    import networkx as nx

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

    @classmethod
    def from_partitions(cls, edge_partitions: list[list]) -> "Topology":
        """Derive sample counts from partitioned datasets.

        ``edge_partitions[ℓ][i]`` is the worker-(i,ℓ) dataset (anything
        with ``len``).
        """
        return cls(
            [[len(worker) for worker in edge] for edge in edge_partitions]
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
    def flat_index(self, edge: int, worker: int) -> int:
        """Map (edge ℓ, local worker i) to the flat worker index."""
        if not 0 <= edge < self.num_edges:
            raise IndexError(f"edge {edge} out of range [0, {self.num_edges})")
        if not 0 <= worker < self.workers_in_edge(edge):
            raise IndexError(
                f"worker {worker} out of range for edge {edge} "
                f"({self.workers_in_edge(edge)} workers)"
            )
        return sum(self.workers_in_edge(e) for e in range(edge)) + worker

    def edge_of(self, flat_index: int) -> tuple[int, int]:
        """Inverse of :meth:`flat_index`: flat index -> (edge, local worker)."""
        if flat_index < 0:
            raise IndexError(f"negative worker index {flat_index}")
        remaining = flat_index
        for edge in range(self.num_edges):
            size = self.workers_in_edge(edge)
            if remaining < size:
                return edge, remaining
            remaining -= size
        raise IndexError(
            f"worker index {flat_index} out of range [0, {self.num_workers})"
        )

    def edge_worker_indices(self, edge: int) -> list[int]:
        """Flat indices of all workers under edge ℓ."""
        start = sum(self.workers_in_edge(e) for e in range(edge))
        return list(range(start, start + self.workers_in_edge(edge)))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        """Graph view: cloud -- edge ℓ -- worker (i, ℓ), with sample attrs."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_node("cloud", tier="cloud")
        for edge in range(self.num_edges):
            edge_name = f"edge{edge}"
            graph.add_node(
                edge_name, tier="edge", samples=self.edge_samples(edge)
            )
            graph.add_edge("cloud", edge_name, link="wan")
            for worker in range(self.workers_in_edge(edge)):
                worker_name = f"worker{edge}.{worker}"
                graph.add_node(
                    worker_name,
                    tier="worker",
                    samples=self.sample_counts[edge][worker],
                )
                graph.add_edge(edge_name, worker_name, link="lan")
        return graph

    def __repr__(self) -> str:
        return (
            f"Topology(edges={self.num_edges}, workers={self.num_workers}, "
            f"samples={self.total_samples})"
        )
