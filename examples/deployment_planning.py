"""Deployment planning with the event-driven simulator.

Before rolling out a hierarchical FL system you want answers to:
How long will a training campaign take on my device fleet, and on the
two-tier alternative whose every aggregation crosses the Internet?  How
much does a straggler-tolerant quorum buy?  What does the campaign
cost the workers in energy?

This example answers all three with the discrete-event simulator (no
training involved — pure deployment timing).

Run:  python examples/deployment_planning.py
"""

from dataclasses import replace

from repro.simulation import (
    AsyncDeployment,
    EventDrivenSimulator,
    add_stragglers,
    estimate_energy,
    worker_device_pool,
)
from repro.topology import Topology

MODEL_BYTES = 1.6e6  # ~200k float64 parameters
T, TAU, PI = 400, 10, 2


def main() -> None:
    topology = Topology.uniform(4, 4, 100)
    devices = worker_device_pool(topology.num_workers)
    deployment = AsyncDeployment(devices, MODEL_BYTES)

    print(f"Fleet: {topology.num_workers} workers under "
          f"{topology.num_edges} edges; model {MODEL_BYTES / 1e6:.1f} MB; "
          f"T={T}, tau={TAU}, pi={PI}\n")

    # Question 1: three-tier vs two-tier total campaign time.  At
    # tau2 = tau*pi both campaigns cross the WAN equally often; the
    # three-tier one adds its LAN edge rounds in between.
    three = EventDrivenSimulator(topology, deployment).simulate(
        T, TAU, PI, rng=0
    )
    two = EventDrivenSimulator(topology, deployment, flat=True).simulate(
        T, TAU * PI, PI, rng=0
    )
    print("1. Architecture choice (WAN every tau*pi iterations in both):")
    print(f"   three-tier campaign: {three.total_time:8.1f}s")
    print(f"   two-tier campaign:   {two.total_time:8.1f}s "
          f"({two.total_time / three.total_time:.2f}x the three-tier "
          "time)\n")

    # Question 2: quorum under stragglers.
    straggling = add_stragglers(devices, probability=0.15, factor=10.0)
    print("2. Straggler tolerance (15% of iterations 10x slower):")
    for quorum in (1.0, 0.75, 0.5):
        result = EventDrivenSimulator(
            topology,
            replace(deployment, worker_devices=straggling, quorum=quorum),
        ).simulate(T, TAU, PI, rng=1)
        late = sum(len(r.workers_late) for r in result.edge_rounds)
        folded = sum(len(r.workers_stale) for r in result.edge_rounds)
        print(f"   quorum {quorum:4.2f}: {result.total_time:8.1f}s "
              f"({late} uploads late, {folded} folded in stale later)")
    print("\n   Lower quorums trade update freshness for wall-clock;")
    print("   the records name exactly which workers were late when.")

    # Question 3: device energy budget.
    three_energy = estimate_energy(deployment, T, TAU)
    two_energy = estimate_energy(deployment, T, TAU * PI, flat=True)
    print("\n3. Worker energy budget (compute + radio):")
    print(f"   three-tier: {three_energy.total_joules:7.0f} J "
          f"(radio {three_energy.radio_joules:.0f} J on the LAN)")
    print(f"   two-tier:   {two_energy.total_joules:7.0f} J "
          f"(radio {two_energy.radio_joules:.0f} J across the WAN)")


if __name__ == "__main__":
    main()
