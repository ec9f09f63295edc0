"""Fig. 2 (h)/(l): trace-driven total-training-time comparison.

Replays each algorithm's accuracy-vs-iteration trace against the device
and link delay models to compute the wall-clock time at which it first
reaches the target accuracy (0.95 in the paper).  The replay is the
event clock of :class:`~repro.simulation.events.EventDrivenSimulator`
at quorum 1.0: three-tier algorithms sync with their edge over the LAN
every τ and with the cloud over the WAN every τ·π; two-tier algorithms
(subclasses of ``TwoTierAlgorithm``) replay flat, syncing with the
cloud over the WAN every τ·π.

Momentum-shipping algorithms (HierAdMo/HierAdMo-R/FedNAG/FastSlowMo/
FedADC/Mime) transfer model + momentum, i.e. a 2× payload; the factor
comes from each class's ``payload_multiplier`` attribute (see
:mod:`repro.telemetry.ledger`), so the timing model can never drift
from the measured byte accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms import TwoTierAlgorithm
from repro.experiments.builders import algorithm_class, build_federation
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_many
from repro.simulation import (
    AsyncDeployment,
    EventDrivenSimulator,
    time_to_accuracy,
    worker_device_pool,
)
from repro.utils.rng import RngStreams

__all__ = ["TimedResult", "run_time_to_accuracy"]

# Seed of the delay replay's streams (one per algorithm, by name).
TIMELINE_SEED = 7


@dataclass(frozen=True)
class TimedResult:
    """One algorithm's timing outcome.

    The byte fields are the *measured* traffic from the run's
    communication ledger (closed-form events × dim × 8 × multiplier),
    not the replay's estimate.
    """

    algorithm: str
    seconds: float | None  # None = never reached the target
    iteration: int | None
    final_accuracy: float
    worker_edge_bytes: float = 0.0
    edge_cloud_bytes: float = 0.0


def run_time_to_accuracy(
    algorithms: tuple[str, ...],
    *,
    target: float = 0.95,
    base_config: ExperimentConfig | None = None,
    straggler_probability: float = 0.0,
    straggler_factor: float = 8.0,
) -> dict[str, TimedResult]:
    """Run the algorithms, replay delays, report time-to-target.

    ``straggler_probability`` > 0 wraps every worker device with
    :class:`~repro.simulation.stragglers.StragglerDevice`, slowing a
    fraction of iterations by ``straggler_factor``.
    """
    if base_config is None:
        base_config = ExperimentConfig(
            dataset="mnist",
            model="cnn",
            tau=10,
            pi=2,
            total_iterations=300,
            eval_every=10,
        )
    histories = run_many(algorithms, base_config)

    federation = build_federation(base_config)
    topology = federation.topology
    devices = worker_device_pool(topology.num_workers)
    if straggler_probability > 0.0:
        from repro.simulation.stragglers import add_stragglers

        devices = add_stragglers(
            devices, straggler_probability, straggler_factor
        )
    streams = RngStreams(TIMELINE_SEED)

    out: dict[str, TimedResult] = {}
    for name, history in histories.items():
        cls = algorithm_class(name)
        flat = issubclass(cls, TwoTierAlgorithm)
        # float64 parameters, times what the class ships per parameter
        deployment = AsyncDeployment(
            devices, federation.dim * 8.0 * cls.payload_multiplier
        )
        simulator = EventDrivenSimulator(topology, deployment, flat=flat)
        replay = simulator.simulate(
            base_config.total_iterations,
            base_config.two_tier_tau if flat else base_config.tau,
            base_config.pi,
            rng=streams.get("timeline", name),
        )
        times = np.concatenate(([0.0], replay.iteration_times))
        seconds = time_to_accuracy(history, times, target)
        out[name] = TimedResult(
            algorithm=name,
            seconds=seconds,
            iteration=history.iterations_to_accuracy(target),
            final_accuracy=history.final_accuracy,
            worker_edge_bytes=history.comm.worker_edge_bytes,
            edge_cloud_bytes=history.comm.edge_cloud_bytes,
        )
    return out
