"""Staleness-aware asynchronous algorithm variants.

These run ``FLAlgorithm.run`` on the event clock
(:class:`repro.simulation.engine.EventLoopRunner`) instead of the
lockstep clock: each worker's gradient steps fire at its simulated
completion time, and aggregation closes on whatever model versions have
arrived when the edge quorum is met.  The engine hands the steps that
finished between two of its decisions over as one wave:
``local_steps`` runs them as one ``Federation.gradient_all`` call, then
applies the worker rule in place on each row, in event order.  Two
variants ship:

* :class:`AsyncFedAvg` — workers under the cloud directly; round
  closure averages the fresh arrivals plus any buffered stale uploads
  with weights decayed by ``staleness_decay ** s``,
* :class:`AsyncHierAdMo` — the three-tier algorithm with *stale-momentum
  correction*: a buffered stale momentum contribution is contracted
  toward the edge's last distributed aggregate
  (``y_ref + decay**s · (y_snap − y_ref)``) before entering line 11, so
  an ancient velocity cannot re-accelerate the edge momentum, and the
  adaptive γℓ (eqs. 6–7) is measured over the fresh arrivals only.

Every closure runs one aggregation over whatever arrived: the fresh
members (a ``slice(None)`` selector when everyone arrived) and any
buffered stale snapshots, at their data weights renormalized over that
set.  With ``quorum=1.0`` and no faults every member arrives fresh and
nothing is stale, so the event-driven run takes the lockstep schedule.
Its evaluations match lockstep only where they fall on cloud barriers:
the goldens (``eval_every`` = τ·π) are reproduced bit for bit and
pinned at rtol 1e-8 by the equivalence battery.  An evaluation between
cloud barriers can differ: ``round_complete(r)`` fires once every group
finished round r, but a faster group may already have written round
r+1 into the evaluation view ``_eval_x``.  On the golden HierAdMo
federation (T=30) ``eval_every=3`` moves the test loss by up to 19.6%
relative against lockstep; ``eval_every=6`` matches bit for bit.
Histories gain a simulated-time axis (``eval_times``), which makes the
paper's Fig. 2 h/l time-to-accuracy comparison emergent rather than
re-priced after the fact.
"""

from __future__ import annotations

import numpy as np

from repro.core.federation import Federation
from repro.core.hieradmo import HierAdMo
from repro.algorithms.twotier import FedAvg, TwoTierAlgorithm
from repro.faults import EVERYONE, block_rows
from repro.metrics.history import TrainingHistory
from repro.simulation.devices import worker_device_pool
from repro.simulation.engine import AsyncDeployment, EventLoopRunner
from repro.telemetry import get_tracer
from repro.utils.validation import check_positive

__all__ = ["AsyncExecutionMixin", "AsyncFedAvg", "AsyncHierAdMo"]


class AsyncExecutionMixin:
    """Event-driven execution for an existing lockstep algorithm.

    Mix in *before* the algorithm class.  Swaps the run's lockstep clock
    for the event clock (``FLAlgorithm.run`` stays the driver) and
    implements the runner's client protocol.  Each wave of worker steps
    applies the lockstep worker rule ``_local_update`` to each of its
    rows.  A closure that aggregates calls the concrete subclass's
    ``_merge_arrivals``; ``resync_worker`` and ``cloud_sync`` come from
    the subclass too.
    """

    DRIVER_KIND = "event"
    # Set per class: two-tier classes run flat, one all-worker group
    # uploading over the WAN, with no separate cloud barrier.
    FLAT = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.FLAT = issubclass(cls, TwoTierAlgorithm)

    def __init__(
        self,
        federation: Federation,
        *,
        deployment: AsyncDeployment | None = None,
        staleness_decay: float = 0.5,
        sim_rng=0,
        **kwargs,
    ):
        super().__init__(federation, **kwargs)
        if deployment is None:
            deployment = AsyncDeployment(
                worker_device_pool(federation.num_workers),
                payload_bytes=federation.dim * 8.0 * self.payload_multiplier,
            )
        self.deployment = deployment
        if not 0.0 < staleness_decay <= 1.0:
            raise ValueError(
                f"staleness_decay must be in (0, 1], got {staleness_decay}"
            )
        self.staleness_decay = float(staleness_decay)
        self.sim_rng = sim_rng
        self.runner: EventLoopRunner | None = None

    def config(self) -> dict:
        return {
            **super().config(),
            "quorum": self.deployment.quorum,
            "staleness_decay": self.staleness_decay,
        }

    @property
    def simulation(self):
        """The last run's :class:`~repro.simulation.events.EventSimulation`."""
        return None if self.runner is None else self.runner.result

    # ------------------------------------------------------------------
    # The event clock (FLAlgorithm.run's clock hooks)
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        super()._setup()
        # Last model each worker *received* — the evaluation view.  The
        # live ``x`` rows of mid-interval workers are private state no
        # deployment could actually read.
        self._eval_x = self.x.copy()
        # Row w: worker w's last upload that missed its quorum, buffered
        # until a closure folds it (the runner tracks which rows do).
        self._stale_x = np.zeros_like(self.x)
        self._gamma_pending: dict[int, dict[int, float]] = {}
        self.runner = None

    def _global_params(self) -> np.ndarray:
        return self.fed.global_average_workers(self._eval_x)

    def _run_clock(
        self, state: dict | None, stop_on_divergence: bool
    ) -> tuple[int, float] | None:
        """Run the event loop; round barriers call back ``round_complete``.

        Resuming restores the full engine state — event queue, in-flight
        uploads, simulation RNG — and replays the remaining events
        bit-exact with an uninterrupted run.
        """
        runner = self.runner = EventLoopRunner(
            self,
            self.deployment,
            tau=self.tau,
            pi=getattr(self, "pi", 1),
            total_iterations=self._total_iterations,
            faults=self.faults,
            rng=self.sim_rng,
            flat=self.FLAT,
            stop_on_divergence=stop_on_divergence,
        )
        if state is not None:
            runner.load_state_dict(state)
        if self._checkpoints is not None:
            runner.checkpoint_hook = self._maybe_checkpoint
        runner.run(resume=state is not None)
        if stop_on_divergence and runner.diverged_at is not None:
            return runner.diverged_at, runner.diverged_loss
        return None

    def _barrier_stride(self) -> int:
        return self.tau

    def _clock_state(self, t: int) -> dict:
        return self.runner.state_dict()

    def _sim_time(self) -> float:
        return 0.0 if self.runner is None else self.runner.last_event_time

    # ------------------------------------------------------------------
    # Runner client protocol (scheduling side)
    # ------------------------------------------------------------------
    @property
    def group_members(self) -> list[np.ndarray]:
        fed = self.fed
        if self.FLAT:
            return [np.arange(fed.num_workers)]
        return [
            np.arange(rows.start, rows.stop) for rows in fed.edge_slices
        ]

    def local_steps(self, workers, ts, times) -> np.ndarray:
        """One gradient step of each ``workers[i]`` at nominal iteration
        ``ts[i]``: one program call over their rows, then the worker rule
        in place on each row.

        The rows stay in the engine's event order, so batch norm folds
        its running buffers, ``track_mu`` appends its norms and the
        train-loss window adds the losses in the order the steps
        finished.  The rule runs once per row on ``slice(w, w + 1)``, so
        it reads and writes views of the worker's rows, not gathered
        copies; with an ``eta_schedule`` ``self.eta`` is that row's
        η(t−1).
        """
        schedule = self.eta_schedule
        if schedule is not None:
            etas = [
                check_positive(schedule(t - 1), "scheduled eta") for t in ts
            ]
        with get_tracer().span("worker_step"):
            losses = self.fed.gradient_all(
                self.x, rows=np.array(workers), out=self._grads
            )
            for row, worker in enumerate(workers):
                if schedule is not None:
                    self.eta = etas[row]
                self._local_update(slice(worker, worker + 1))
        for loss in losses.tolist():
            self._loss_sum += loss
        self._loss_count += len(workers)
        return losses

    def round_complete(self, round_index: int, time: float) -> None:
        """Barrier notification: every group finished ``round_index``.

        A tiered round whose closures aggregated anywhere left its γℓ
        in ``_gamma_pending``; it bills one edge round here, once, as
        the lockstep clock bills a scheduled round.
        """
        gammas = self._gamma_pending.pop(round_index, None)
        if gammas is not None:
            self.history.comm.record_worker_edge(0)
        if self._records_gammas:
            self.history.record_gammas(gammas or {})
        # Every group has aggregated and redistributed, so a cohort
        # rebind here sees broadcast-coherent rows; the engine calls the
        # checkpoint hook only after this returns.
        self._round_barrier(
            min(round_index * self.tau, self._total_iterations),
            sim_time=float(time),
        )

    def monitor_round_data(self, group: int, round_index: int) -> dict:
        """Algorithm payload for the engine's ``edge_round`` events."""
        if not self._records_gammas:
            return {}
        gamma = self._gamma_pending.get(round_index, {}).get(group)
        if gamma is None:
            return {}
        return {"gammas": {str(group): float(gamma)}}

    @staticmethod
    def _fresh_rows(block: slice, fresh: tuple[int, ...]):
        """Selector (within ``block``) of a closure's fresh arrivals."""
        if len(fresh) == block.stop - block.start:
            return EVERYONE
        return np.asarray(fresh, dtype=int) - block.start

    def snapshot_stale(self, worker: int) -> None:
        self._stale_x[worker] = self.x[worker]

    def close_round(
        self,
        group: int,
        round_index: int,
        fresh: tuple[int, ...],
        stale: tuple[tuple[int, int], ...],
        receivers: tuple[int, ...],
        upload_events: int,
        *,
        dark: bool = False,
    ) -> None:
        """Aggregate round ``round_index`` from whatever arrived.

        A dark or empty closure aggregates nothing: each receiver
        resyncs to the group's last distributed model.
        """
        with get_tracer().span("cloud_agg" if self.FLAT else "edge_agg"):
            if dark or not (fresh or stale):
                for worker in receivers:
                    self.resync_worker(worker, group)
                if upload_events:
                    self._bill(upload_events, rounds=0)
                return
            recv = np.asarray(receivers, dtype=int)
            self._merge_arrivals(group, round_index, fresh, stale, recv)
            # A flat round is its one group's closure; a tiered round is
            # billed at its barrier (``round_complete``).
            self._bill(upload_events + recv.size, rounds=int(self.FLAT))

    def _bill(self, transfers: int, *, rounds: int = 1) -> None:
        """Bill worker transfers on their link: the WAN if flat."""
        comm = self.history.comm
        record = comm.record_edge_cloud if self.FLAT else comm.record_worker_edge
        record(transfers, rounds=rounds)

    def _stale_rows(self, stale: tuple[tuple[int, int], ...]):
        """Worker ids of a closure's stale pairs, and ``decay**s`` each."""
        ids = np.array([w for w, _ in stale], dtype=int)
        decays = np.array([self.staleness_decay**s for _, s in stale])
        return ids, decays

    # ------------------------------------------------------------------
    # Checkpoint protocol: ``_eval_x`` and the stale rows are declared
    # CKPT_ARRAYS of the concrete classes; the γℓ values wait here for
    # their barrier.
    # ------------------------------------------------------------------
    def checkpoint_values(self) -> dict:
        values = dict(super().checkpoint_values())
        values["async:gamma_pending"] = {
            str(r): {str(g): float(v) for g, v in groups.items()}
            for r, groups in self._gamma_pending.items()
        }
        return values

    def restore_values(self, values: dict) -> None:
        values = dict(values)
        pending = values.pop("async:gamma_pending")
        super().restore_values(values)
        self._gamma_pending = {
            int(r): {int(g): float(v) for g, v in groups.items()}
            for r, groups in pending.items()
        }

    # ------------------------------------------------------------------
    # Run digests
    # ------------------------------------------------------------------
    def _stale_upload_tally(self) -> dict:
        """Summary of the stale uploads recorded at the cloud rounds."""
        cloud = self.simulation.cloud_rounds if self.simulation else []
        workers = sorted(
            {int(w) for record in cloud for w in record.stale_uploads}
        )
        return {
            "uploads": sum(len(r.stale_uploads) for r in cloud),
            "cloud_rounds": len(cloud),
            "rounds_with_stale": sum(
                1 for r in cloud if r.stale_uploads
            ),
            "workers": workers,
        }

    def _finish_run(self, history: TrainingHistory) -> TrainingHistory:
        history = super()._finish_run(history)
        if history.fault_summary is not None:
            history.fault_summary["stale_uploads"] = self._stale_upload_tally()
        return history


class AsyncHierAdMo(AsyncExecutionMixin, HierAdMo):
    """Event-driven HierAdMo with stale-momentum correction."""

    name = "AsyncHierAdMo"
    CKPT_ARRAYS = HierAdMo.CKPT_ARRAYS + ("_eval_x", "_stale_x", "_stale_y")

    def _setup(self) -> None:
        super()._setup()
        self._stale_y = np.zeros_like(self.y)

    def snapshot_stale(self, worker: int) -> None:
        super().snapshot_stale(worker)
        self._stale_y[worker] = self.y[worker]

    def resync_worker(self, worker: int, group: int) -> None:
        """A late worker downloads the edge's current state and restarts."""
        self.y[worker] = self.edge_y_minus[group]
        self.x[worker] = self.edge_x_plus[group]
        self._eval_x[worker] = self.edge_x_plus[group]
        self.controller.reset_workers([worker])
        self._bill(1, rounds=0)

    def _merge_arrivals(
        self,
        group: int,
        round_index: int,
        fresh: tuple[int, ...],
        stale: tuple[tuple[int, int], ...],
        recv: np.ndarray,
    ) -> None:
        """Lines 8–15 on whatever arrived at this edge's quorum."""
        fed = self.fed
        rows = fed.edge_slices[group]
        sel = self._fresh_rows(rows, fresh)
        fresh_ids = block_rows(rows, sel)
        w_fresh = fed.worker_w_in_edge[group][sel]
        if fresh:
            # γℓ measures *current* agreement, so only fresh
            # accumulators enter eq. 6.
            gamma_edge = self._adapt_edge_gamma(
                group, fresh_ids, w_fresh / w_fresh.sum()
            )
            self.controller.reset_workers(fresh_ids)
        else:
            gamma_edge = self._gamma_state[group]
        stale_ids, decays = self._stale_rows(stale)
        # Stale-momentum correction: contract each buffered momentum
        # toward the last distributed aggregate so an s-rounds-old
        # velocity cannot re-accelerate the edge momentum at full
        # strength.
        y_ref = self.edge_y_minus[group]
        y_stale = y_ref + decays[:, None] * (self._stale_y[stale_ids] - y_ref)
        weights = np.concatenate([
            w_fresh,
            fed.worker_w_in_edge[group][stale_ids - rows.start] * decays,
        ])
        y_minus, x_plus = self._edge_momentum(
            group,
            weights / weights.sum(),
            np.vstack([self.y[fresh_ids], y_stale]),
            np.vstack([self.x[fresh_ids], self._stale_x[stale_ids]]),
            gamma_edge,
        )
        if recv.size:
            self.y[recv] = y_minus
            self.x[recv] = x_plus
            self._eval_x[recv] = x_plus
        self._gamma_pending.setdefault(round_index, {})[group] = gamma_edge

    def cloud_sync(self, index: int, receivers: tuple[int, ...]) -> None:
        """Lines 17–23 at the cloud barrier."""
        with get_tracer().span("cloud_agg"):
            fed = self.fed
            y_bar = fed.cloud_average_edges(self.edge_y_minus)
            x_bar = fed.cloud_average_edges(self.edge_x_plus)
            self.edge_y_minus[:] = y_bar
            self.edge_x_plus[:] = x_bar
            recv = np.asarray(receivers, dtype=int)
            self.y[recv] = y_bar
            self.x[recv] = x_bar
            self._eval_x[recv] = x_bar
            self.history.comm.record_edge_cloud(2 * fed.num_edges)
            if recv.size:
                self.history.comm.record_worker_edge(recv.size, rounds=0)


class AsyncFedAvg(AsyncExecutionMixin, FedAvg):
    """Event-driven FedAvg: staleness-decayed averaging at the cloud."""

    name = "AsyncFedAvg"

    CKPT_ARRAYS = FedAvg.CKPT_ARRAYS + ("_server_x", "_eval_x", "_stale_x")

    def _setup(self) -> None:
        super()._setup()
        # The server's last distributed model (rebroadcast target when a
        # round closes empty, download source for late-worker resyncs).
        self._server_x = self.fed.initial_params()

    def resync_worker(self, worker: int, group: int) -> None:
        self.x[worker] = self._server_x
        self._eval_x[worker] = self._server_x
        self._bill(1, rounds=0)

    def _merge_arrivals(
        self,
        group: int,
        round_index: int,
        fresh: tuple[int, ...],
        stale: tuple[tuple[int, int], ...],
        recv: np.ndarray,
    ) -> None:
        """Staleness-decayed average of the arrivals at the cloud."""
        fed = self.fed
        sel = self._fresh_rows(slice(0, fed.num_workers), fresh)
        stale_ids, decays = self._stale_rows(stale)
        weights = np.concatenate([
            fed.global_worker_w[sel], fed.global_worker_w[stale_ids] * decays
        ])
        x_bar = (weights / weights.sum()) @ np.vstack(
            [self.x[sel], self._stale_x[stale_ids]]
        )
        self._server_x = x_bar
        if recv.size:
            self.x[recv] = x_bar
            self._eval_x[recv] = x_bar

    def cloud_sync(self, index: int, receivers: tuple[int, ...]) -> None:
        raise RuntimeError(
            "flat deployments aggregate at round closure; there is no "
            "separate cloud barrier"
        )
