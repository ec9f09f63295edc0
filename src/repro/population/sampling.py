"""Seeded cohort sampling over a virtual-client registry.

Each rebind period ``p`` the sampler draws a fixed-size cohort per edge
from that edge's registered clients.  The draw for period ``p`` is a
pure function of ``(seed, p, edge)`` — a fresh generator from
``child_seed(seed, "cohort", p, edge)`` — so the sampler itself carries
no mutable state: crash/resume replays the same cohorts without
anything to checkpoint, and cohorts for different periods/edges are
statistically independent.

Two properties matter for bit-exactness:

* **Identity shortcut** — when the cohort covers the whole edge the
  sampler returns the client ids in registry order *without consuming
  any randomness*, so full-participation virtual runs are structurally
  identical to a classic federation (same worker order, same derived
  sampler streams).
* **Bounded cost** — partial draws use Floyd's algorithm, O(k) time and
  memory in the cohort size ``k``, never O(population).
"""

from __future__ import annotations

import numpy as np

from repro.population.registry import ClientRegistry
from repro.utils.rng import child_seed
from repro.utils.validation import check_positive_int

__all__ = ["CohortSampler"]


def _floyd_sample(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct values from range(n) in O(k) (Floyd's algorithm)."""
    chosen: set[int] = set()
    for j in range(n - k, n):
        t = int(rng.integers(0, j + 1))
        chosen.add(t if t not in chosen else j)
    return np.fromiter(chosen, dtype=np.int64, count=k)


class CohortSampler:
    """Stratified per-edge cohort draws keyed by rebind period."""

    def __init__(
        self,
        registry: ClientRegistry,
        cohort_per_edge: int,
        *,
        seed: int = 0,
    ):
        self.registry = registry
        check_positive_int(cohort_per_edge, "cohort_per_edge")
        self.cohort_per_edge = min(
            cohort_per_edge, registry.clients_per_edge
        )
        self.seed = int(seed)

    @property
    def cohort_size(self) -> int:
        return self.cohort_per_edge * self.registry.num_edges

    def draw(self, period: int) -> np.ndarray:
        """Sorted client ids of period ``p``'s cohort (edge-major)."""
        registry = self.registry
        k = self.cohort_per_edge
        blocks = []
        for edge in range(registry.num_edges):
            clients = registry.clients_of_edge(edge)
            if k == len(clients):
                blocks.append(np.arange(clients.start, clients.stop))
                continue
            rng = np.random.default_rng(
                child_seed(self.seed, "cohort", period, edge)
            )
            picks = _floyd_sample(rng, len(clients), k)
            picks.sort()
            blocks.append(picks + clients.start)
        return np.concatenate(blocks)
