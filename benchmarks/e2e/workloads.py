"""The four end-to-end workloads: what each runs, and how it is built.

Every workload goes through the public library path a user takes:
``ExperimentConfig`` -> ``build_federation`` / ``build_algorithm`` ->
``run()``, with ``repro.faults.FaultPlan``, ``repro.checkpoint`` and
``repro.monitoring`` attached the way the CLI attaches them.  The
benchmark seed becomes the experiment seed, the fault-plan seed and the
event engine's simulation seed, so one seed fixes every input.

Run lengths are scaled so that one fresh process (set-up, run, resume)
takes a few seconds on one core: a measured run then holds several
processes, and their median is steady.  README.md shows what the
shortened ``population_1m`` run still covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Plan", "Workload", "WORKLOADS", "build", "reattach"]


@dataclass(frozen=True)
class Plan:
    """Run length of one workload: full or smoke."""

    iterations: int
    eval_every: int
    checkpoint_every: int

    def __post_init__(self):
        if self.iterations % self.checkpoint_every == 0:
            # A checkpoint at the last iteration would leave the resumed
            # run nothing to do.
            raise ValueError("iterations must not be a multiple of checkpoint_every")

    @property
    def resume_from(self) -> int:
        """Iteration of the newest checkpoint, where the resumed run starts."""
        return self.iterations // self.checkpoint_every * self.checkpoint_every


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str
    config: dict
    full: Plan
    smoke: Plan
    # Accuracy whose first crossing is ``iters_to_target``, and the
    # final-accuracy floor every seed must clear.  Both come from the
    # default-seed curve and a sweep over seeds (see README.md).
    target: float
    floor: float
    faults: dict = field(default_factory=dict)
    # (straggler probability, straggler slowdown, edge quorum) for the
    # event-driven workload; ``None`` for the lockstep ones.
    stragglers: tuple[float, float, float] | None = None
    monitor: bool = False

    def plan(self, smoke: bool) -> Plan:
        return self.smoke if smoke else self.full

    def expected_transfers(self, plan: Plan) -> dict[str, int] | None:
        """Ledger transfer events per tier, in closed form.

        Only a fault-free lockstep run has a closed form; faults and the
        event engine make the count depend on what the run realized, so
        those workloads return ``None``.
        """
        if self.faults or self.stragglers is not None:
            return None
        c = self.config
        workers = c["num_edges"] * c["workers_per_edge"]
        cloud_rounds = plan.iterations // (c["tau"] * c["pi"])
        if self.algorithm == "HierAdMo":
            # An edge round moves every worker's model up and back down;
            # a cloud round moves each edge's up and down and then pushes
            # the merged model to every worker.
            edge_rounds = plan.iterations // c["tau"]
            return {
                "worker_edge": 2 * workers * edge_rounds + workers * cloud_rounds,
                "edge_cloud": 2 * c["num_edges"] * cloud_rounds,
            }
        if self.algorithm == "FedAvg":
            # Two tiers: every worker uploads to and downloads from the
            # cloud once per round of tau * pi iterations.
            return {"worker_edge": 0, "edge_cloud": 2 * workers * cloud_rounds}
        raise ValueError(f"no closed form for {self.algorithm}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cnn_hieradmo",
            why=(
                "Compute-bound: the batched conv/pool/dense program is most "
                "of the time, so kernel work shows here and nowhere else."
            ),
            algorithm="HierAdMo",
            config=dict(
                dataset="mnist", model="cnn", num_samples=4000,
                num_edges=4, workers_per_edge=8, batch_size=16,
                tau=5, pi=2, eta=0.05,
            ),
            full=Plan(iterations=60, eval_every=6, checkpoint_every=25),
            smoke=Plan(iterations=10, eval_every=5, checkpoint_every=4),
            target=0.8,
            floor=0.6,
        ),
        Workload(
            name="resnet_fedavg",
            why=(
                "The only BatchNorm/residual program and the two-tier "
                "baseline; its checkpoints are a few large dense arrays."
            ),
            algorithm="FedAvg",
            config=dict(
                dataset="cifar10", model="resnet18", num_samples=2000, test_fraction=0.1,
                num_edges=2, workers_per_edge=4, batch_size=16,
                tau=5, pi=2, eta=0.05,
            ),
            full=Plan(iterations=30, eval_every=5, checkpoint_every=12),
            smoke=Plan(iterations=5, eval_every=5, checkpoint_every=3),
            target=0.18,
            floor=0.13,
        ),
        Workload(
            name="population_1m",
            why=(
                "Control-plane-bound: a million registered clients, cohort "
                "rebinds, growing carry store, checkpoints, faults."
            ),
            algorithm="HierAdMo",
            config=dict(
                dataset="mnist", model="logistic", population=1_000_000,
                cohort_per_edge=64, num_edges=4, workers_per_edge=64,
                batch_size=16, tau=2, pi=2, eta=0.005,
            ),
            full=Plan(iterations=40, eval_every=4, checkpoint_every=16),
            smoke=Plan(iterations=8, eval_every=4, checkpoint_every=6),
            faults=dict(worker_dropout=0.05, edge_outage=0.02),
            target=0.8,
            floor=0.8,
        ),
        Workload(
            name="async_stragglers",
            why=(
                "Per-worker dispatch on the event engine with stragglers, "
                "faults and the JSONL monitor stream."
            ),
            algorithm="AsyncHierAdMo",
            config=dict(
                dataset="cifar10", model="logistic", num_samples=4000,
                num_edges=4, workers_per_edge=8, batch_size=16,
                tau=5, pi=2, eta=0.005,
            ),
            full=Plan(iterations=500, eval_every=25, checkpoint_every=200),
            smoke=Plan(iterations=50, eval_every=25, checkpoint_every=20),
            faults=dict(worker_dropout=0.05, msg_loss=0.05, msg_staleness=0.05),
            stragglers=(0.25, 10.0, 0.5),
            monitor=True,
            target=0.98,
            floor=0.9,
        ),
    )
}


def build(workload: Workload, seed: int, plan: Plan):
    """``(config, algorithm)`` for one run, through the public builders."""
    from repro import ExperimentConfig
    from repro.experiments.builders import build_algorithm, build_federation

    config = ExperimentConfig(
        seed=seed,
        total_iterations=plan.iterations,
        eval_every=plan.eval_every,
        **workload.config,
    )
    federation = build_federation(config)
    algorithm = build_algorithm(workload.algorithm, federation, config)
    reattach(workload, algorithm, seed)
    return config, algorithm


def reattach(workload: Workload, algorithm, seed: int) -> None:
    """Attach what the stored experiment config does not carry.

    ``repro.checkpoint.restore`` rebuilds an algorithm from the config
    alone, so the fault plan and the async deployment must be attached
    again before a resumed run, exactly as on the first run.
    """
    if workload.stragglers is not None:
        from repro.simulation import (
            AsyncDeployment,
            add_stragglers,
            worker_device_pool,
        )

        probability, factor, quorum = workload.stragglers
        fed = algorithm.fed
        algorithm.deployment = AsyncDeployment(
            add_stragglers(
                worker_device_pool(fed.num_workers), probability, factor
            ),
            payload_bytes=fed.dim * 8.0 * algorithm.payload_multiplier,
            quorum=quorum,
        )
        algorithm.sim_rng = seed
    if workload.faults:
        from repro import FaultPlan

        algorithm.attach_faults(FaultPlan(seed=seed, **workload.faults))
