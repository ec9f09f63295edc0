"""Discrete-event simulation of hierarchical FL deployments.

The deployment simulator, and the one clock Fig. 2(h)/(l) prices a run
on, runs the event engine of :mod:`repro.simulation.engine` with a
client that computes nothing:

* each worker is an independent process computing its τ local
  iterations (per-iteration delays sampled from its device profile),
  then uploading to its edge node, so workers meet only at the
  aggregation barriers of Algorithm 1;
* an edge node aggregates when its quorum is met — all workers for the
  paper's synchronous setting (``quorum=1.0``), or a fraction for
  asynchronous-flavoured deployments — then downloads the result back.
  A late upload is buffered and folded into a later round with its
  staleness, and its sender resumes from the current round;
* every π edge rounds the edges synchronize with the cloud over the WAN;
* a ``flat`` (two-tier) deployment is one group of all workers
  uploading straight to the cloud device over the WAN: each closure is
  the cloud round, and π is not used.

Outputs the engine's per-round records plus the per-iteration clock,
which :func:`time_to_accuracy` joins with a run's accuracy curve.
Statistics match the barrier structure of Algorithm 1 exactly when
``quorum=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.topology import Topology

if TYPE_CHECKING:  # annotations; the engine imports this module's records
    from repro.metrics.history import TrainingHistory
    from repro.simulation.engine import AsyncDeployment

__all__ = ["EdgeRoundRecord", "CloudRoundRecord", "EventSimulation",
           "EventDrivenSimulator", "time_to_accuracy"]


@dataclass(frozen=True)
class EdgeRoundRecord:
    """One edge aggregation event."""

    edge: int
    round_index: int
    start_time: float
    finish_time: float
    workers_included: tuple[int, ...]
    workers_late: tuple[int, ...]
    # Workers whose *buffered stale* uploads (late for an earlier round)
    # were folded into this round; a training client weights them by
    # their staleness.
    workers_stale: tuple[int, ...] = ()


@dataclass(frozen=True)
class CloudRoundRecord:
    """One cloud aggregation event."""

    round_index: int
    start_time: float
    finish_time: float
    # Edges whose state entered the cloud average (all of them under the
    # full-barrier cloud sync; recorded so degraded variants can differ).
    edges_included: tuple[int, ...] = ()
    # Workers whose uploads missed their quorum at some point since the
    # previous cloud round (every closure of a flat deployment is one):
    # the contribution the cloud round built on was computed without
    # them, or with their work folded in late.
    stale_uploads: tuple[int, ...] = ()


@dataclass
class EventSimulation:
    """Full output of one simulated deployment."""

    edge_rounds: list[EdgeRoundRecord] = field(default_factory=list)
    cloud_rounds: list[CloudRoundRecord] = field(default_factory=list)
    # iteration_times[t-1]: the time by which every worker has finished
    # step t and every round that closes at t has finished, as a running
    # maximum over steps 1..t.  Round r of a tier closes at r times its
    # period (τ, or τ·π for the cloud); the short tail round the engine
    # closes at T when T is not a multiple is no round of Algorithm 1,
    # so the clock does not wait for it.  A worker resynced after
    # missing a quorum can skip or repeat steps; at quorum 1.0 every
    # worker runs every step once and the curve strictly rises.
    iteration_times: np.ndarray | None = None

    @property
    def total_time(self) -> float:
        """Finish time of the last aggregation event."""
        last_edge = self.edge_rounds[-1].finish_time if self.edge_rounds else 0.0
        last_cloud = (
            self.cloud_rounds[-1].finish_time if self.cloud_rounds else 0.0
        )
        return max(last_edge, last_cloud)


class EventDrivenSimulator:
    """Simulate one deployment at event granularity, three-tier or flat.

    The simulation is an :class:`~repro.simulation.engine.EventLoopRunner`
    run on ``deployment`` (devices, links, payload bytes, edge quorum)
    whose client does no numerics: it only records when each worker
    first finished each local step.  ``flat`` is the runner's flat mode:
    one group of all workers on the WAN at the cloud device, whose every
    closure is the cloud round (π is not used).
    """

    def __init__(
        self,
        topology: Topology,
        deployment: AsyncDeployment,
        *,
        flat: bool = False,
    ):
        if len(deployment.worker_devices) != topology.num_workers:
            raise ValueError(
                f"{len(deployment.worker_devices)} devices for "
                f"{topology.num_workers} workers"
            )
        self.topology = topology
        self.deployment = deployment
        self.flat = bool(flat)

    def simulate(
        self,
        total_iterations: int,
        tau: int,
        pi: int,
        rng: np.random.Generator | int | None = None,
    ) -> EventSimulation:
        """Run the deployment for ``total_iterations`` local iterations."""
        from repro.simulation.engine import EventLoopRunner

        client = _StepClock(self.topology, self.flat)
        runner = EventLoopRunner(
            client,
            self.deployment,
            tau=tau,
            pi=pi,
            total_iterations=total_iterations,
            rng=rng,
            flat=self.flat,
        )
        client.bind(runner)
        result = runner.run()
        # The clock: when the last worker first finished each step,
        # raised at each closing iteration to its rounds' finish.
        done = client.first_done.max(axis=0)
        cloud_period = tau if self.flat else tau * pi
        for period, records in (
            (tau, result.edge_rounds),
            (cloud_period, result.cloud_rounds),
        ):
            for record in records:
                t = record.round_index * period
                if t <= total_iterations:
                    done[t - 1] = max(done[t - 1], record.finish_time)
        result.iteration_times = np.maximum.accumulate(done)
        return result


def time_to_accuracy(
    history: TrainingHistory,
    times: np.ndarray,
    target: float,
) -> float | None:
    """Wall-clock seconds at which the run first reached ``target``.

    ``times[t]`` is the clock after local iteration ``t``: 0.0 followed
    by :attr:`EventSimulation.iteration_times`.  Returns ``None`` if the
    accuracy never reached the target.
    """
    iteration = history.iterations_to_accuracy(target)
    if iteration is None:
        return None
    if iteration >= times.size:
        raise ValueError(
            f"history evaluates iteration {iteration} but the clock "
            f"covers only {times.size - 1} iterations"
        )
    return float(times[iteration])


class _StepClock:
    """Runner client that times the steps and computes nothing.

    The engine's schedule does not depend on the numerics, so every
    hook but ``local_steps`` is a no-op.
    """

    def __init__(self, topology: Topology, flat: bool):
        if flat:
            self.group_members = [np.arange(topology.num_workers)]
        else:
            self.group_members = [
                topology.edge_worker_indices(edge)
                for edge in range(topology.num_edges)
            ]

    def bind(self, runner) -> None:
        # first_done[w, t-1]: when worker w first finished step t (0.0
        # if it skipped it after a resync).
        self.first_done = np.zeros(
            (runner.num_workers, runner.total_iterations)
        )

    def local_steps(self, workers, ts, times) -> list[float]:
        first_done = self.first_done
        for worker, t, time in zip(workers, ts, times):
            if not first_done[worker, t - 1]:
                first_done[worker, t - 1] = time
        return [0.0] * len(workers)

    def _ignore(self, *args, **kwargs) -> None:
        pass

    snapshot_stale = resync_worker = close_round = _ignore
    cloud_sync = round_complete = _ignore
