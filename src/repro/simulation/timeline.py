"""Trace-driven wall-clock timelines (paper §V-D, Fig. 2 h/l).

The paper trains once on a GPU server, keeps the iteration trace, samples
real device/link delays, and replays the trace against those delays to
compute what the wall-clock time *would have been* on the physical
three-tier (or two-tier) deployment.  :class:`Timeline` does exactly
that replay against the synthetic delay profiles:

* within an edge interval, workers compute in parallel, so each
  iteration's duration is the max over the participating workers'
  sampled per-iteration delays;
* an edge aggregation adds worker→edge upload (max over workers), the
  edge's aggregation compute, and edge→worker download (max);
* a cloud aggregation adds edge→cloud WAN upload (max over edges), cloud
  compute and WAN download.

The two-tier deployment is the ``flat`` case, as in
``EventLoopRunner(flat=True)``: one group of all workers syncs with the
cloud over the WAN, so two-tier algorithms pay the WAN on *every*
aggregation, and there is no separate cloud tier.

Momentum-carrying algorithms ship both model and momentum state; callers
fold that ``payload_multiplier`` into the deployment's ``payload_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults import FaultPlan
from repro.metrics.history import TrainingHistory
from repro.simulation.devices import DeviceProfile
from repro.simulation.engine import AsyncDeployment
from repro.simulation.links import LinkProfile, RetryPolicy
from repro.telemetry import get_tracer
from repro.topology import Topology
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["Timeline", "time_to_accuracy"]


@dataclass
class Timeline:
    """Delay replay of one deployment: client–edge–cloud, or ``flat``."""

    topology: Topology
    deployment: AsyncDeployment
    # Message-loss pricing: with a fault plan attached, every simulated
    # transfer may be lost with ``fault_plan.msg_loss`` probability and
    # is then retried under ``retry_policy`` (timeout + backoff +
    # retransmission all added to the wall clock).
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    flat: bool = False

    def __post_init__(self):
        devices = self.deployment.worker_devices
        if len(devices) != self.topology.num_workers:
            raise ValueError(
                f"{len(devices)} device profiles for "
                f"{self.topology.num_workers} workers"
            )
        if self.deployment.quorum < 1.0:
            raise ValueError(
                "the replay waits for every worker at every sync; a quorum "
                f"of {self.deployment.quorum} needs EventDrivenSimulator"
            )

    def simulate(
        self,
        total_iterations: int,
        tau: int,
        pi: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Cumulative wall-clock time after each local iteration.

        Workers sync every ``tau`` iterations and, unless ``flat``,
        edges sync with the cloud every ``tau * pi``.  Returns an array
        of length ``total_iterations + 1`` whose entry ``t`` is the
        elapsed time when local iteration ``t`` has finished everywhere
        (including any aggregation scheduled at ``t``).
        """
        check_positive_int(total_iterations, "total_iterations")
        check_positive_int(tau, "tau")
        check_positive_int(pi, "pi")
        rng = make_rng(rng)
        dep = self.deployment
        topology = self.topology

        compute = np.stack(
            [
                device.sample_iterations(total_iterations, rng)
                for device in dep.worker_devices
            ]
        )  # (workers, T)

        # (period, members per group, link, aggregating device, counter)
        if self.flat:
            tiers = [
                (tau, [topology.num_workers], dep.wan, dep.cloud_device,
                 "rounds"),
            ]
        else:
            edges = [
                topology.workers_in_edge(edge)
                for edge in range(topology.num_edges)
            ]
            tiers = [
                (tau, edges, dep.lan, dep.edge_device, "edge_rounds"),
                (tau * pi, [topology.num_edges], dep.wan, dep.cloud_device,
                 "cloud_rounds"),
            ]
        rounds = [0] * len(tiers)
        retries = 0
        times = np.empty(total_iterations + 1)
        times[0] = clock = 0.0
        for t in range(1, total_iterations + 1):
            # Parallel workers: the slowest defines the iteration.
            clock += float(compute[:, t - 1].max())
            for tier, (period, members, link, device, _) in enumerate(tiers):
                if t % period == 0:
                    seconds, sync_retries = self._sync(
                        members, link, device, rng
                    )
                    clock += seconds
                    retries += sync_retries
                    rounds[tier] += 1
            times[t] = clock
        tracer = get_tracer()
        if tracer.enabled:
            prefix = "sim.two_tier." if self.flat else "sim.three_tier."
            transfers = retries
            for (_, members, _, _, counter), count in zip(tiers, rounds):
                tracer.count(prefix + counter, count)
                transfers += 2 * count * sum(members)
            if retries:
                tracer.count(prefix + "retries", retries)
            tracer.count(prefix + "bytes", dep.payload_bytes * transfers)
        return times

    def _sync(
        self,
        members: list[int],
        link: LinkProfile,
        device: DeviceProfile,
        rng: np.random.Generator,
    ) -> tuple[float, int]:
        """(seconds, retries) of one synchronisation.

        Each group's ``members`` upload over ``link``, ``device``
        aggregates, and the result is downloaded; groups sync in
        parallel, so the slowest one counts.
        """
        slowest = 0.0
        retries = 0
        for size in members:
            upload = download = 0.0
            for _ in range(size):
                seconds, r = self._transfer(link, rng)
                upload = max(upload, seconds)
                retries += r
            for _ in range(size):
                seconds, r = self._transfer(link, rng)
                download = max(download, seconds)
                retries += r
            aggregate = device.sample_aggregation(rng)
            slowest = max(slowest, upload + aggregate + download)
        return slowest, retries

    def _transfer(
        self, link: LinkProfile, rng: np.random.Generator
    ) -> tuple[float, int]:
        """(seconds, retries) of one transfer under the fault plan."""
        payload = self.deployment.payload_bytes
        plan = self.fault_plan
        loss = plan.msg_loss if plan is not None else 0.0
        if loss <= 0.0:
            return link.transfer_time(payload, rng), 0
        return link.transfer_time_with_retries(
            payload, rng, loss_prob=loss, policy=self.retry_policy
        )


def time_to_accuracy(
    history: TrainingHistory,
    times: np.ndarray,
    target: float,
) -> float | None:
    """Wall-clock seconds at which the run first reached ``target``.

    ``times`` must be the cumulative-time array whose index is the local
    iteration (as produced by :meth:`Timeline.simulate`).  Returns
    ``None`` if the accuracy never reached the target.
    """
    iteration = history.iterations_to_accuracy(target)
    if iteration is None:
        return None
    if iteration >= times.size:
        raise ValueError(
            f"history evaluates iteration {iteration} but the timeline "
            f"covers only {times.size - 1} iterations"
        )
    return float(times[iteration])
