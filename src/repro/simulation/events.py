"""Discrete-event simulation of hierarchical FL deployments.

The coarse replay in :mod:`repro.simulation.timeline` advances a single
global clock per iteration (max over workers), which slightly
over-synchronizes: real workers only meet at aggregation barriers, so a
fast worker can be several iterations ahead within an edge interval.
This module simulates the deployment at event granularity, on the event
engine of :mod:`repro.simulation.engine` with a client that computes
nothing:

* each worker is an independent process computing its τ local
  iterations (per-iteration delays sampled from its device profile),
  then uploading to its edge node;
* an edge node aggregates when its quorum is met — all workers for the
  paper's synchronous setting (``quorum=1.0``), or a fraction for
  asynchronous-flavoured deployments — then downloads the result back.
  A late upload is buffered and folded into a later round with its
  staleness, and its sender resumes from the current round;
* every π edge rounds the edges synchronize with the cloud over the WAN.

Outputs the engine's per-round records plus per-iteration completion
times, so time-to-accuracy studies can also quantify how much a
straggler quorum buys.  Statistics match the barrier structure of
Algorithm 1 exactly when ``quorum=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.topology import Topology

if TYPE_CHECKING:  # the engine imports this module's round records
    from repro.simulation.engine import AsyncDeployment

__all__ = ["EdgeRoundRecord", "CloudRoundRecord", "EventSimulation",
           "EventDrivenSimulator"]


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
    # iteration_times[t-1]: the running maximum, over steps 1..t, of the
    # time the last worker first finished that step.  A worker resynced
    # after missing a quorum can skip or repeat steps; at quorum 1.0
    # every worker runs every step once and the curve strictly rises.
    iteration_times: np.ndarray | None = None

    @property
    def total_time(self) -> float:
        """Finish time of the last aggregation event."""
        last_edge = self.edge_rounds[-1].finish_time if self.edge_rounds else 0.0
        last_cloud = (
            self.cloud_rounds[-1].finish_time if self.cloud_rounds else 0.0
        )
        return max(last_edge, last_cloud)

    def time_at_iteration(self, t: int) -> float:
        """Global time by which iteration ``t`` was complete.

        ``t`` is the paper's 1-indexed iteration count, matching the
        ``iteration_times`` convention above (entry t-1) and the replay
        timelines' ``times[t]`` axis: ``t=0`` is the start of the run
        (time 0.0) and ``t=T`` the final iteration.
        """
        if self.iteration_times is None:
            raise ValueError("simulation did not record iteration times")
        if not 0 <= t <= self.iteration_times.size:
            raise ValueError(
                f"iteration {t} outside [0, {self.iteration_times.size}]"
            )
        if t == 0:
            return 0.0
        return float(self.iteration_times[t - 1])


class EventDrivenSimulator:
    """Simulate a three-tier deployment at event granularity.

    The simulation is an :class:`~repro.simulation.engine.EventLoopRunner`
    run on ``deployment`` (devices, links, payload bytes, edge quorum)
    whose client does no numerics: it only records when each worker
    first finished each local step.
    """

    def __init__(self, topology: Topology, deployment: AsyncDeployment):
        if len(deployment.worker_devices) != topology.num_workers:
            raise ValueError(
                f"{len(deployment.worker_devices)} devices for "
                f"{topology.num_workers} workers"
            )
        self.topology = topology
        self.deployment = deployment

    def simulate(
        self,
        total_iterations: int,
        tau: int,
        pi: int,
        rng: np.random.Generator | int | None = None,
    ) -> EventSimulation:
        """Run the deployment for ``total_iterations`` local iterations."""
        from repro.simulation.engine import EventLoopRunner

        client = _StepClock(self.topology)
        runner = EventLoopRunner(
            client,
            self.deployment,
            tau=tau,
            pi=pi,
            total_iterations=total_iterations,
            rng=rng,
        )
        client.bind(runner)
        result = runner.run()
        result.iteration_times = np.maximum.accumulate(
            client.first_done.max(axis=0)
        )
        return result


class _StepClock:
    """Runner client that times the steps and computes nothing.

    The engine's schedule does not depend on the numerics, so every
    hook but ``local_steps`` is a no-op.
    """

    def __init__(self, topology: Topology):
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
