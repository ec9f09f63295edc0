"""Dataset substrate: synthetic corpora, loaders and federated partitioners."""

from repro.data.base import Dataset, train_test_split
from repro.data.diagnostics import (
    heterogeneity_summary,
    js_divergence_from_global,
    label_distribution_matrix,
)
from repro.data.loader import SampleStore
from repro.data.real import (
    load_mnist_idx,
    load_or_synthesize,
    read_cifar10_binary,
    read_idx,
    write_cifar10_binary,
    write_idx,
)
from repro.data.partition import (
    partition,
    partition_dirichlet,
    partition_iid,
    partition_xclass,
)
from repro.data.synthetic import (
    DATASET_BUILDERS,
    make_blob_dataset,
    make_dataset,
    make_synthetic_cifar10,
    make_synthetic_har,
    make_synthetic_imagenet,
    make_synthetic_mnist,
)

__all__ = [
    "Dataset",
    "train_test_split",
    "SampleStore",
    "partition",
    "partition_iid",
    "partition_xclass",
    "partition_dirichlet",
    "make_blob_dataset",
    "make_dataset",
    "make_synthetic_mnist",
    "make_synthetic_cifar10",
    "make_synthetic_imagenet",
    "make_synthetic_har",
    "DATASET_BUILDERS",
    "read_idx",
    "write_idx",
    "load_mnist_idx",
    "read_cifar10_binary",
    "write_cifar10_binary",
    "load_or_synthesize",
    "label_distribution_matrix",
    "js_divergence_from_global",
    "heterogeneity_summary",
]
