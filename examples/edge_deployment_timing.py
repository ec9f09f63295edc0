"""Trace-driven deployment timing (the paper's Fig. 2 h/l scenario).

Trains several algorithms, then replays their iteration traces against
device and network delay models (laptop/phone workers on WiFi, edge on
Ethernet, cloud across the public Internet) to estimate the wall-clock
time each would need to reach a target accuracy on real hardware.

Run:  python examples/edge_deployment_timing.py
"""

from repro.experiments import ExperimentConfig, run_time_to_accuracy


def main() -> None:
    target = 0.90
    config = ExperimentConfig(
        dataset="mnist",
        model="logistic",
        num_samples=1600,
        eta=0.02,
        tau=10,
        pi=2,
        total_iterations=300,
        eval_every=10,
        seed=3,
    )
    algorithms = (
        "HierAdMo",
        "HierAdMo-R",
        "HierFAVG",
        "FastSlowMo",
        "FedNAG",
        "FedAvg",
    )

    print(
        f"Simulating time-to-{target:.2f}-accuracy "
        "(three-tier: tau=10, pi=2; two-tier: tau=20)..."
    )
    results = run_time_to_accuracy(
        algorithms, target=target, base_config=config
    )

    print(f"\n{'algorithm':<12} {'reached at':>12} {'sim. time':>12}")
    reference = results["HierAdMo"].seconds
    for name, result in sorted(
        results.items(),
        key=lambda kv: kv[1].seconds if kv[1].seconds is not None else 1e18,
    ):
        if result.seconds is None:
            print(f"{name:<12} {'never':>12} {'--':>12}")
            continue
        speedup = ""
        if reference is not None and name != "HierAdMo":
            speedup = f"   ({result.seconds / reference:.2f}x vs HierAdMo)"
        print(
            f"{name:<12} {result.iteration:>10} it "
            f"{result.seconds:>10.1f}s{speedup}"
        )

    print(
        "\nBoth tiers cross the WAN every tau*pi = 20 iterations (two-tier"
        "\nbaselines at each of their aggregations), so the gaps come from"
        "\nthe iterations each algorithm needs to reach the target."
    )


if __name__ == "__main__":
    main()
