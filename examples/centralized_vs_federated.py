"""Centralized reference vs federated algorithms.

The classic FL frame: the same corpus trained centrally (all data pooled
on one worker) and by federations.  Centralized NAG is FedNAG with one
worker, so the reference is a one-worker federation built from the same
``ExperimentConfig`` as the federated runs: same corpus, same test set,
same η, γ, batch size and step budget.  The example trains it and three
federated algorithms (2 edges x 2 workers, 3 classes per worker) and
renders the curves as terminal sparklines.

At the same iteration budget the reference takes one mini-batch per
step while each federation takes one per worker, four per step.  Under
this non-iid split the reference ends above FedAvg and HierFAVG, and
HierAdMo ends above the reference.

Run:  python examples/centralized_vs_federated.py
"""

from repro.experiments import ExperimentConfig, run_many, run_single
from repro.metrics.ascii_plot import compare_curves

T = 300


def main() -> None:
    config = ExperimentConfig(
        dataset="mnist",
        model="logistic",
        num_samples=1600,
        eta=0.01,
        tau=10,
        pi=2,
        total_iterations=T,
        eval_every=30,
        seed=7,
    )

    print("Centralized NAG reference (one worker, pooled data)...")
    central = run_single(
        "FedNAG",
        config.with_overrides(num_edges=1, workers_per_edge=1, scheme="iid"),
    )

    print("Federated algorithms (3-class non-iid, 2 edges x 2 workers)...")
    federated = run_many(("HierAdMo", "HierFAVG", "FedAvg"), config)

    curves = {"centralized": central, **federated}
    print()
    print(compare_curves(curves, width=30))
    print(
        "\nReading: the one-worker reference takes one batch per step, each"
        "\nfederation four.  Under non-iid data the reference ends above"
        "\nFedAvg and HierFAVG, and HierAdMo ends above the reference."
    )


if __name__ == "__main__":
    main()
