"""Data partitioners: split a dataset across federated workers.

The paper's non-i.i.d. experiments use the *x-class* scheme: each worker is
assigned data from exactly ``x`` of the dataset's classes (Fig. 2 e–g), so
gradient diversity ``δ_{i,ℓ}`` differs per worker.  We also provide i.i.d.
and Dirichlet partitioners, which are standard in the FL literature.

All partitioners assign **every** sample to exactly one worker
(a property test enforces this).
"""

from __future__ import annotations

import numpy as np

from repro.data.base import Dataset
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = [
    "partition_iid",
    "partition_xclass",
    "partition_dirichlet",
]


def _subsets(dataset: Dataset, assignment: list[np.ndarray]) -> list[Dataset]:
    return [dataset.subset(indices) for indices in assignment]


def partition_iid(
    dataset: Dataset,
    num_workers: int,
    rng: np.random.Generator | int | None = None,
) -> list[Dataset]:
    """Shuffle and deal samples round-robin: near-identical distributions."""
    check_positive_int(num_workers, "num_workers")
    if len(dataset) < num_workers:
        raise ValueError(
            f"{len(dataset)} samples cannot cover {num_workers} workers"
        )
    rng = make_rng(rng)
    order = rng.permutation(len(dataset))
    return _subsets(dataset, [order[i::num_workers] for i in range(num_workers)])


def partition_xclass(
    dataset: Dataset,
    num_workers: int,
    classes_per_worker: int,
    rng: np.random.Generator | int | None = None,
) -> list[Dataset]:
    """The paper's x-class non-i.i.d. scheme.

    Each worker draws its samples from exactly ``classes_per_worker``
    randomly-assigned classes.  Class shards are balanced so every sample
    is used exactly once: each class's samples are split evenly among the
    workers holding that class.

    Classes are dealt so that (a) every worker gets the requested number of
    distinct classes and (b) every class is held by at least one worker
    whenever ``num_workers * classes_per_worker >= num_classes``.
    """
    check_positive_int(num_workers, "num_workers")
    check_positive_int(classes_per_worker, "classes_per_worker")
    if classes_per_worker > dataset.num_classes:
        raise ValueError(
            f"classes_per_worker={classes_per_worker} exceeds "
            f"num_classes={dataset.num_classes}"
        )
    if num_workers * classes_per_worker < dataset.num_classes:
        raise ValueError(
            f"{num_workers} workers x {classes_per_worker} classes cannot "
            f"cover all {dataset.num_classes} classes; every sample must "
            "be assigned (increase workers or classes_per_worker)"
        )
    rng = make_rng(rng)
    num_classes = dataset.num_classes

    # Deal class ids from a repeated shuffled deck so coverage is balanced.
    total_slots = num_workers * classes_per_worker
    deck: list[int] = []
    while len(deck) < total_slots:
        deck.extend(rng.permutation(num_classes).tolist())
    worker_classes: list[set[int]] = [set() for _ in range(num_workers)]
    cursor = 0
    for worker in range(num_workers):
        while len(worker_classes[worker]) < classes_per_worker:
            candidate = deck[cursor % len(deck)]
            cursor += 1
            if candidate not in worker_classes[worker]:
                worker_classes[worker].add(candidate)

    # Split each class's samples evenly among its holders.
    holders: dict[int, list[int]] = {c: [] for c in range(num_classes)}
    for worker, classes in enumerate(worker_classes):
        for class_id in classes:
            holders[class_id].append(worker)

    assignment: list[list[int]] = [[] for _ in range(num_workers)]
    for class_id in range(num_classes):
        class_indices = np.flatnonzero(dataset.y == class_id)
        rng.shuffle(class_indices)
        workers_holding = holders[class_id]
        if not workers_holding:
            # Cannot happen: with num_workers*classes_per_worker >= classes
            # the first shuffled deck block deals every class (see tests).
            raise RuntimeError(
                f"internal error: class {class_id} was dealt to no worker"
            )
        shards = np.array_split(class_indices, len(workers_holding))
        for worker, shard in zip(workers_holding, shards):
            assignment[worker].extend(shard.tolist())

    arrays = [np.asarray(sorted(a), dtype=np.int64) for a in assignment]
    empties = [w for w, a in enumerate(arrays) if a.size == 0]
    if empties:
        raise ValueError(
            f"workers {empties} received no samples; increase the dataset "
            "size or reduce the worker count"
        )
    return _subsets(dataset, arrays)


def partition_dirichlet(
    dataset: Dataset,
    num_workers: int,
    alpha: float,
    rng: np.random.Generator | int | None = None,
) -> list[Dataset]:
    """Dirichlet(α) label-skew partition (Hsu et al. style).

    Small ``alpha`` gives highly skewed label distributions; large
    ``alpha`` approaches i.i.d.  Empty workers are topped up with one
    sample stolen from the largest worker so downstream training never
    divides by zero.
    """
    check_positive_int(num_workers, "num_workers")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    rng = make_rng(rng)

    assignment: list[list[int]] = [[] for _ in range(num_workers)]
    for class_id in range(dataset.num_classes):
        class_indices = np.flatnonzero(dataset.y == class_id)
        if class_indices.size == 0:
            continue
        rng.shuffle(class_indices)
        proportions = rng.dirichlet([alpha] * num_workers)
        counts = np.floor(proportions * class_indices.size).astype(int)
        # Distribute the flooring remainder to the largest proportions.
        remainder = class_indices.size - counts.sum()
        for worker in np.argsort(proportions)[::-1][:remainder]:
            counts[worker] += 1
        offset = 0
        for worker in range(num_workers):
            take = counts[worker]
            assignment[worker].extend(class_indices[offset : offset + take])
            offset += take

    sizes = [len(a) for a in assignment]
    for worker in range(num_workers):
        if sizes[worker] == 0:
            donor = int(np.argmax(sizes))
            moved = assignment[donor].pop()
            assignment[worker].append(moved)
            sizes[donor] -= 1
            sizes[worker] += 1

    arrays = [np.asarray(sorted(a), dtype=np.int64) for a in assignment]
    return _subsets(dataset, arrays)

