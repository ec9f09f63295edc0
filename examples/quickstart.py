"""Quickstart: train HierAdMo on a synthetic non-i.i.d. federation.

Builds the paper's default small topology (2 edge nodes x 2 workers,
3-class non-i.i.d. data), trains the classic CNN with HierAdMo, and
prints the accuracy curve plus the adaptive edge-momentum trace.

Run:  python examples/quickstart.py
"""

from repro import ExperimentConfig, run_single


def main() -> None:
    config = ExperimentConfig(
        dataset="mnist",
        model="cnn",
        num_samples=1200,
        num_edges=2,
        workers_per_edge=2,
        scheme="xclass",
        classes_per_worker=3,
        eta=0.01,
        gamma=0.5,
        tau=10,
        pi=2,
        total_iterations=200,
        eval_every=20,
        seed=0,
    )

    print("Training HierAdMo (CNN on synthetic MNIST, 3-class non-iid)...")
    history = run_single("HierAdMo", config)

    print("\niteration  accuracy   loss")
    for t, accuracy, loss in zip(
        history.iterations, history.test_accuracy, history.test_loss
    ):
        bar = "#" * int(40 * accuracy)
        print(f"{t:9d}  {accuracy:8.3f}  {loss:5.3f}  {bar}")

    print(f"\nfinal accuracy: {history.final_accuracy:.3f}")
    print(f"edge aggregations: {history.comm.worker_edge_rounds}, "
          f"cloud aggregations: {history.comm.edge_cloud_rounds}")

    mean_gammas = [
        sum(trace.values()) / len(trace) for trace in history.gamma_trace
    ]
    print("\nadaptive gamma_l (mean over edges) per edge aggregation:")
    print("  " + " ".join(f"{g:.2f}" for g in mean_gammas))


if __name__ == "__main__":
    main()
