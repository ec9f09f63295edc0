"""Staleness-aware asynchronous algorithm variants.

These run ``FLAlgorithm.run`` on the event clock
(:class:`repro.simulation.engine.EventLoopRunner`) instead of the
lockstep clock: each worker's gradient steps fire at its simulated
completion time, and aggregation closes on whatever model versions have
arrived when the edge quorum is met.  Two variants ship:

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
from repro.algorithms.twotier import FedAvg
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
    implements the runner's client protocol; the numeric hooks
    (``_async_worker_step``, ``close_round``, ``cloud_sync``) come from
    the concrete subclass.
    """

    DRIVER_KIND = "event"
    # Two-tier subclasses set True: one all-worker group uploading over
    # the WAN, with no separate cloud barrier.
    FLAT = False
    # True for subclasses that record a γℓ trace per round.
    _records_gammas = False

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
        self._stale_store: dict[int, tuple] = {}
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

    def local_step(self, worker: int, t: int) -> float:
        """One gradient step of ``worker`` at nominal iteration ``t``."""
        if self.eta_schedule is not None:
            self.eta = check_positive(
                self.eta_schedule(t - 1), "scheduled eta"
            )
        with get_tracer().span("worker_step"):
            loss = float(self._async_worker_step(int(worker)))
        self._loss_sum += loss
        self._loss_count += 1
        return loss

    def round_complete(self, round_index: int, time: float) -> None:
        """Barrier notification: every group finished ``round_index``."""
        if self._records_gammas:
            self.history.record_gammas(
                self._gamma_pending.pop(round_index, {})
            )
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

    # ------------------------------------------------------------------
    # Checkpoint protocol (engine-side state rides along with the
    # algorithm's declared CKPT_ARRAYS/CKPT_VALUES)
    # ------------------------------------------------------------------
    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        arrays = dict(super().checkpoint_arrays())
        arrays["async:eval_x"] = self._eval_x
        for worker, snap in self._stale_store.items():
            parts = snap if isinstance(snap, tuple) else (snap,)
            for slot, part in enumerate(parts):
                arrays[f"async:stale:{worker}:{slot}"] = part
        return arrays

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        super().restore_arrays(
            {
                name: array
                for name, array in arrays.items()
                if not name.startswith("async:")
            }
        )
        np.copyto(self._eval_x, arrays["async:eval_x"])
        slots: dict[int, dict[int, np.ndarray]] = {}
        for name, array in arrays.items():
            if not name.startswith("async:stale:"):
                continue
            _, _, worker, slot = name.split(":")
            slots.setdefault(int(worker), {})[int(slot)] = array.copy()
        # Single-slot snapshots are bare arrays (AsyncFedAvg), multi-slot
        # ones tuples (AsyncHierAdMo) — mirroring ``snapshot_stale``.
        self._stale_store = {
            worker: (
                parts[0]
                if len(parts) == 1
                else tuple(parts[i] for i in range(len(parts)))
            )
            for worker, parts in slots.items()
        }

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
        tally = self._stale_upload_tally()
        tracer = get_tracer()
        if tracer.enabled and tally["uploads"]:
            # Counted before the base class freezes trace_summary.
            tracer.count("eventsim.stale_uploads", tally["uploads"])
        history = super()._finish_run(history)
        if history.fault_summary is not None:
            history.fault_summary["stale_uploads"] = tally
        return history


class AsyncHierAdMo(AsyncExecutionMixin, HierAdMo):
    """Event-driven HierAdMo with stale-momentum correction."""

    name = "AsyncHierAdMo"
    _records_gammas = True

    # ------------------------------------------------------------------
    # Per-event numerics
    # ------------------------------------------------------------------
    def _async_worker_step(self, worker: int) -> float:
        """Lines 4–6 for one worker (row-wise lockstep expressions)."""
        g = self._grads[worker]
        _, loss = self.fed.gradient(worker, self.x[worker], out=g)
        y_prev = self.y[worker]
        y_new = self.x[worker] - self.eta * g
        velocity = y_new - y_prev
        self.controller.accumulate(worker, g, y_prev, velocity)
        if self.track_mu:
            self.velocity_norms.append(
                float(np.linalg.norm(self.gamma * velocity))
            )
            self.gradient_step_norms.append(
                float(np.linalg.norm(self.eta * g))
            )
        self.x[worker] = y_new + self.gamma * velocity
        self.y[worker] = y_new
        return float(loss)

    def snapshot_stale(self, worker: int) -> None:
        self._stale_store[worker] = (
            self.x[worker].copy(),
            self.y[worker].copy(),
        )

    def resync_worker(self, worker: int, group: int) -> None:
        """A late worker downloads the edge's current state and restarts."""
        self.y[worker] = self.edge_y_minus[group]
        self.x[worker] = self.edge_x_plus[group]
        self._eval_x[worker] = self.edge_x_plus[group]
        self.controller.reset_workers([worker])
        self.history.comm.record_worker_edge(1, rounds=0)

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
        """Lines 8–15 on whatever arrived at this edge's quorum."""
        fed = self.fed
        recv = np.asarray(receivers, dtype=int)
        with get_tracer().span("edge_agg"):
            if dark or (not fresh and not stale):
                # No aggregate this round: rebroadcast the edge's last
                # state so the barrier's workers restart coherently.
                if recv.size:
                    self.y[recv] = self.edge_y_minus[group]
                    self.x[recv] = self.edge_x_plus[group]
                    self._eval_x[recv] = self.edge_x_plus[group]
                    self.controller.reset_workers(recv)
                events = upload_events + recv.size
                if events:
                    self.history.comm.record_worker_edge(events, rounds=0)
                return
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
            decay = self.staleness_decay
            y_ref = self.edge_y_minus[group]
            blocks_y, blocks_x = [self.y[fresh_ids]], [self.x[fresh_ids]]
            blocks_w = [w_fresh]
            for w_id, s in stale:
                x_snap, y_snap = self._stale_store.pop(w_id)
                # Stale-momentum correction: contract the buffered
                # momentum toward the last distributed aggregate so an
                # s-rounds-old velocity cannot re-accelerate the edge
                # momentum at full strength.
                blocks_y.append((y_ref + decay**s * (y_snap - y_ref))[None])
                blocks_x.append(x_snap[None])
                blocks_w.append(
                    fed.worker_w_in_edge[group][[w_id - rows.start]]
                    * decay**s
                )
            weights = np.concatenate(blocks_w)
            weights = weights / weights.sum()
            x_plus_prev = self.edge_x_plus[group]
            y_minus = weights @ np.vstack(blocks_y)
            y_plus = x_plus_prev - weights @ (
                x_plus_prev - np.vstack(blocks_x)
            )
            x_plus = y_plus + gamma_edge * (
                y_plus - self.edge_y_plus[group]
            )
            self.edge_y_plus[group] = y_plus
            self.edge_x_plus[group] = x_plus
            self.edge_y_minus[group] = y_minus
            if recv.size:
                self.y[recv] = y_minus
                self.x[recv] = x_plus
                self._eval_x[recv] = x_plus
            self._gamma_pending.setdefault(round_index, {})[group] = (
                gamma_edge
            )
            self.history.comm.record_worker_edge(upload_events + recv.size)

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
    FLAT = True

    CKPT_ARRAYS = FedAvg.CKPT_ARRAYS + ("_server_x",)

    def _setup(self) -> None:
        super()._setup()
        # The server's last distributed model (rebroadcast target when a
        # round closes empty, download source for late-worker resyncs).
        self._server_x = self.fed.initial_params()

    # ------------------------------------------------------------------
    # Per-event numerics
    # ------------------------------------------------------------------
    def _async_worker_step(self, worker: int) -> float:
        g = self._grads[worker]
        _, loss = self.fed.gradient(worker, self.x[worker], out=g)
        self.x[worker] -= self.eta * g
        return float(loss)

    def snapshot_stale(self, worker: int) -> None:
        self._stale_store[worker] = self.x[worker].copy()

    def resync_worker(self, worker: int, group: int) -> None:
        self.x[worker] = self._server_x
        self._eval_x[worker] = self._server_x
        self.history.comm.record_edge_cloud(1, rounds=0)

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
        fed = self.fed
        recv = np.asarray(receivers, dtype=int)
        with get_tracer().span("cloud_agg"):
            if dark or (not fresh and not stale):
                if recv.size:
                    self.x[recv] = self._server_x
                    self._eval_x[recv] = self._server_x
                events = upload_events + recv.size
                if events:
                    self.history.comm.record_edge_cloud(events, rounds=0)
                return
            sel = self._fresh_rows(slice(0, fed.num_workers), fresh)
            blocks_x = [self.x[sel]]
            blocks_w = [fed.global_worker_w[sel]]
            for w_id, s in stale:
                blocks_x.append(self._stale_store.pop(w_id)[None])
                blocks_w.append(
                    fed.global_worker_w[[w_id]] * self.staleness_decay**s
                )
            weights = np.concatenate(blocks_w)
            x_bar = (weights / weights.sum()) @ np.vstack(blocks_x)
            self._server_x = x_bar
            if recv.size:
                self.x[recv] = x_bar
                self._eval_x[recv] = x_bar
            self.history.comm.record_edge_cloud(upload_events + recv.size)

    def cloud_sync(self, index: int, receivers: tuple[int, ...]) -> None:
        raise RuntimeError(
            "flat deployments aggregate at round closure; there is no "
            "separate cloud barrier"
        )
