"""Extension bench: quantized hierarchical FL (after Liu et al. [8]).

Measures the accuracy-vs-uplink-bytes trade-off of delta compression on
HierFAVG, and the straggler sensitivity of the two deployment shapes.
Not a paper artifact — it covers the communication-efficiency levers the
paper's related-work section positions HierAdMo against.
"""

from repro.algorithms.compressed import QuantizedHierFAVG
from repro.compression import NoCompression, TopKSparsifier, UniformQuantizer
from repro.experiments import ExperimentConfig, build_federation
from repro.experiments.timing import run_time_to_accuracy

from .conftest import run_once

CONFIG = ExperimentConfig(
    dataset="mnist",
    model="logistic",
    num_samples=1600,
    eta=0.02,
    tau=10,
    pi=2,
    total_iterations=200,
    eval_every=50,
    seed=9,
)


def test_compression_tradeoff(benchmark):
    def evaluate():
        out = {}
        for label, compressor in [
            ("float64", NoCompression()),
            ("q8", UniformQuantizer(8, rng=0)),
            ("q4", UniformQuantizer(4, rng=0)),
            ("top10%", TopKSparsifier(0.10)),
        ]:
            federation = build_federation(CONFIG)
            algo = QuantizedHierFAVG(
                federation, eta=CONFIG.eta, tau=CONFIG.tau, pi=CONFIG.pi,
                compressor=compressor,
            )
            history = algo.run(
                CONFIG.total_iterations, eval_every=CONFIG.eval_every
            )
            out[label] = (history.final_accuracy, algo.uplink_payload_bytes)
        return out

    results = run_once(benchmark, evaluate)
    print("\nscheme     accuracy     uplink bytes")
    baseline_bytes = results["float64"][1]
    for label, (accuracy, payload) in results.items():
        ratio = payload / baseline_bytes
        print(f"{label:<9} {accuracy:8.3f} {payload:14.0f}  ({ratio:.2%})")

    # 8-bit quantization: ~8x fewer bytes, (almost) no accuracy loss.
    assert results["q8"][1] < 0.2 * baseline_bytes
    assert results["q8"][0] >= results["float64"][0] - 0.05
    # top-10%: >5x fewer bytes, bounded accuracy loss.
    assert results["top10%"][1] < 0.2 * baseline_bytes
    assert results["top10%"][0] >= results["float64"][0] - 0.15


def _seconds(value: float | None) -> str:
    """A time to target, or ``never`` for a run that did not reach it."""
    return "never" if value is None else f"{round(value, 1)}s"


def test_straggler_sensitivity(benchmark):
    """Stragglers hurt, but the hierarchy keeps the damage local: the
    three-tier leader still beats the two-tier baselines."""

    def evaluate():
        return (
            run_time_to_accuracy(
                ("HierAdMo", "FedAvg"), target=0.85,
                base_config=CONFIG,
            ),
            run_time_to_accuracy(
                ("HierAdMo", "FedAvg"), target=0.85,
                base_config=CONFIG,
                straggler_probability=0.1, straggler_factor=8.0,
            ),
        )

    healthy, straggling = run_once(benchmark, evaluate)
    print("\n                 healthy    with stragglers")
    for name in ("HierAdMo", "FedAvg"):
        h = _seconds(healthy[name].seconds)
        s = _seconds(straggling[name].seconds)
        print(f"  {name:<12} {h:<10} {s}")
    assert straggling["HierAdMo"].seconds is not None
    assert straggling["HierAdMo"].seconds > healthy["HierAdMo"].seconds
    if straggling["FedAvg"].seconds is not None:
        assert (
            straggling["HierAdMo"].seconds <= straggling["FedAvg"].seconds
        )
