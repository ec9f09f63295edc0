"""Builders: config -> datasets, model, federation, algorithm.

This is the single place that knows how to wire a named dataset to a
named model to a topology, so every table/figure runner (and the
examples) share identical construction logic.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import ALGORITHM_REGISTRY, ASYNC_ALGORITHM_REGISTRY
from repro.algorithms.compressed import QuantizedHierFAVG
from repro.algorithms.fedprox import FedProx
from repro.algorithms.participation import SampledFedAvg
from repro.core.base import FLAlgorithm
from repro.core.federation import Federation
from repro.data import (
    Dataset,
    make_dataset,
    partition_dirichlet,
    partition_iid,
    partition_xclass,
    train_test_split,
)
from repro.experiments.config import ExperimentConfig
from repro.nn.models import (
    make_cnn,
    make_linear_regression,
    make_logistic_regression,
    make_resnet,
    make_vgg,
)
from repro.nn.supervised import SupervisedModel
from repro.utils.rng import RngStreams

__all__ = [
    "build_datasets",
    "build_model",
    "build_federation",
    "build_algorithm",
    "needs_flat_features",
    "algorithm_class",
]


def needs_flat_features(model_name: str) -> bool:
    """Convex models consume flat feature vectors; conv models need images."""
    return model_name in ("linear", "logistic")


def build_datasets(
    config: ExperimentConfig,
) -> tuple[list[list[Dataset]], Dataset]:
    """(edge_partitions, test_set) for a config.

    One corpus is generated and split, so train and test share class
    prototypes; the training split is partitioned per the config scheme
    and dealt to edges in contiguous groups.
    """
    streams = RngStreams(config.seed)
    corpus = make_dataset(
        config.dataset, config.num_samples, rng=streams.get("corpus")
    )
    if needs_flat_features(config.model):
        corpus = corpus.flattened()
    elif config.dataset == "har":
        # Conv models need spatial input: fold the HAR feature vector
        # into a single-channel square "sensor image" (64 -> 1x8x8),
        # the common trick for CNNs on UCI-HAR feature vectors.
        side = int(np.sqrt(corpus.num_features))
        if side * side != corpus.num_features:
            raise ValueError(
                f"HAR feature count {corpus.num_features} is not square; "
                "use a square num_features for conv models"
            )
        corpus = Dataset(
            corpus.x.reshape(-1, 1, side, side),
            corpus.y,
            corpus.num_classes,
            corpus.name,
        )
    train, test = train_test_split(
        corpus, config.test_fraction, rng=streams.get("split")
    )

    if config.scheme == "iid":
        parts = partition_iid(
            train, config.num_workers, rng=streams.get("partition")
        )
    elif config.scheme == "xclass":
        parts = partition_xclass(
            train,
            config.num_workers,
            config.classes_per_worker,
            rng=streams.get("partition"),
        )
    else:
        parts = partition_dirichlet(
            train,
            config.num_workers,
            config.dirichlet_alpha,
            rng=streams.get("partition"),
        )

    edge_partitions = [
        parts[e * config.workers_per_edge : (e + 1) * config.workers_per_edge]
        for e in range(config.num_edges)
    ]
    return edge_partitions, test


def build_model(
    config: ExperimentConfig, sample: Dataset
) -> SupervisedModel:
    """Instantiate the named model for the dataset's shape."""
    streams = RngStreams(config.seed)
    rng = streams.get("model")
    num_classes = sample.num_classes
    kwargs = dict(config.model_kwargs)

    if config.model == "linear":
        return make_linear_regression(sample.num_features, num_classes, rng)
    if config.model == "logistic":
        return make_logistic_regression(sample.num_features, num_classes, rng)

    if sample.x.ndim != 4:
        raise ValueError(
            f"model {config.model!r} needs image data, got feature shape "
            f"{sample.feature_shape} (dataset {config.dataset!r})"
        )
    channels, image_size = sample.x.shape[1], sample.x.shape[2]
    if config.model == "cnn":
        kwargs.setdefault("width", 8)
        kwargs.setdefault("hidden", 32)
        return make_cnn(channels, image_size, num_classes, rng=rng, **kwargs)
    if config.model == "vgg16":
        kwargs.setdefault("width_multiplier", 1.0 / 16.0)
        return make_vgg(
            "vgg16", channels, image_size, num_classes, rng=rng, **kwargs
        )
    if config.model == "resnet18":
        kwargs.setdefault("width_multiplier", 1.0 / 16.0)
        return make_resnet(
            "resnet18", channels, num_classes, rng=rng, **kwargs
        )
    raise ValueError(f"unknown model {config.model!r}")


def build_federation(config: ExperimentConfig) -> Federation:
    """Full federation for a config (fresh model + fresh samplers).

    With ``config.population > 0`` the federation is built through a
    virtual-population binder instead: ``population`` registered
    clients on synthetic per-client shards, of which ``cohort_per_edge``
    per edge are materialized.  The binder rides on the returned
    federation as ``federation.population_binder`` and is attached to
    the algorithm by :func:`build_algorithm`.
    """
    if config.population > 0:
        return _build_virtual_federation(config)
    edge_partitions, test = build_datasets(config)
    model = build_model(config, test)
    return Federation(
        model,
        edge_partitions,
        test,
        batch_size=config.batch_size,
        seed=config.seed,
    )


def _build_virtual_federation(config: ExperimentConfig) -> Federation:
    from repro.data.shards import PrototypeShards
    from repro.population import PopulationBinder

    shards = PrototypeShards(
        config.population,
        num_features=32,
        num_classes=10,
        samples_per_client=config.samples_per_client,
        classes_per_client=config.classes_per_worker,
        seed=config.seed,
    )
    binder = PopulationBinder(
        shards,
        num_edges=config.num_edges,
        cohort_per_edge=config.cohort_per_edge or config.workers_per_edge,
        seed=config.seed,
    )
    test = shards.test_set(max(64, config.samples_per_client * 4))
    if needs_flat_features(config.model):
        model = build_model(config, test)
    else:
        raise ValueError(
            "virtual populations currently support flat-feature models "
            f"(linear/logistic), got {config.model!r}"
        )
    federation = binder.build_federation(
        model, test, batch_size=config.batch_size
    )
    federation.population_binder = binder
    return federation


def build_algorithm(
    name: str, federation: Federation, config: ExperimentConfig
) -> FLAlgorithm:
    """Instantiate a registry algorithm with the paper's hyper-parameters.

    Three-tier algorithms receive (τ, π); two-tier baselines receive the
    matched τ·π (the paper's fairness rule).  Momentum factors map to the
    paper's γ = γℓ = 0.5 defaults unless the config overrides them.
    A federation built through the virtual-population path carries its
    binder along; it is attached here so every construction site (CLI,
    runners, checkpoint ``restore``) gets population support for free.
    """
    algorithm = _construct_algorithm(name, federation, config)
    binder = getattr(federation, "population_binder", None)
    if binder is not None:
        algorithm.attach_population(binder)
    return algorithm


def algorithm_class(name: str) -> type[FLAlgorithm]:
    """The class :func:`build_algorithm` constructs for ``name``."""
    registry = {
        **ALGORITHM_REGISTRY,
        **ASYNC_ALGORITHM_REGISTRY,
        "QuantizedHierFAVG": QuantizedHierFAVG,
        "FedProx": FedProx,
        "SampledFedAvg": SampledFedAvg,
    }
    if name not in registry:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from "
            f"{sorted(registry)}"
        )
    return registry[name]


def _construct_algorithm(
    name: str, federation: Federation, config: ExperimentConfig
) -> FLAlgorithm:
    cls = algorithm_class(name)
    eta = config.eta

    if name == "AsyncHierAdMo":
        return cls(
            federation, eta=eta, gamma=config.gamma,
            tau=config.tau, pi=config.pi,
        )
    if name == "AsyncFedAvg":
        return cls(federation, eta=eta, tau=config.two_tier_tau)
    if name == "QuantizedHierFAVG":
        return cls(federation, eta=eta, tau=config.tau, pi=config.pi)
    if name == "FedProx":
        return cls(federation, eta=eta, tau=config.two_tier_tau)
    if name == "SampledFedAvg":
        return cls(
            federation, eta=eta, tau=config.two_tier_tau,
            rng=RngStreams(config.seed).get("participation"),
        )

    if name == "HierAdMo":
        return cls(
            federation, eta=eta, gamma=config.gamma,
            tau=config.tau, pi=config.pi,
            angle_mode=config.angle_mode,
            gamma_smoothing=config.gamma_smoothing,
        )
    if name == "HierAdMo-R":
        return cls(
            federation, eta=eta, gamma=config.gamma,
            tau=config.tau, pi=config.pi, gamma_edge=config.gamma_edge,
        )
    if name in ("HierFAVG", "CFL"):
        return cls(federation, eta=eta, tau=config.tau, pi=config.pi)

    tau2 = config.two_tier_tau
    if name == "FedAvg":
        return cls(federation, eta=eta, tau=tau2)
    if name == "FedNAG":
        return cls(federation, eta=eta, tau=tau2, gamma=config.gamma)
    if name in ("FedMom", "SlowMo", "Mime", "FedADC"):
        return cls(federation, eta=eta, tau=tau2, beta=config.gamma_edge)
    if name == "FastSlowMo":
        return cls(
            federation, eta=eta, tau=tau2,
            gamma=config.gamma, beta=config.gamma_edge,
        )
    raise ValueError(f"no construction rule for {name!r}")

