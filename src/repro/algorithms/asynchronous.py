"""Staleness-aware asynchronous algorithm variants.

These run under the event-driven engine
(:class:`repro.simulation.engine.EventLoopRunner`) instead of the
lockstep driver: each worker's gradient steps fire at its simulated
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
nothing is stale, so the event-driven run reproduces the golden
trajectories (pinned at rtol 1e-8 by the equivalence battery).
Histories gain a simulated-time axis (``eval_times``), which makes the
paper's Fig. 2 h/l time-to-accuracy comparison emergent rather than
re-priced after the fact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.federation import Federation
from repro.core.hieradmo import HierAdMo
from repro.algorithms.twotier import FedAvg
from repro.faults import EVERYONE, block_rows
from repro.metrics.history import TrainingHistory
from repro.monitoring.health import MonitorAbort
from repro.monitoring.monitor import get_monitor
from repro.simulation.devices import worker_device_pool
from repro.simulation.engine import AsyncDeployment, EventLoopRunner
from repro.telemetry import get_tracer
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["AsyncExecutionMixin", "AsyncFedAvg", "AsyncHierAdMo"]


class AsyncExecutionMixin:
    """Event-driven execution for an existing lockstep algorithm.

    Mix in *before* the algorithm class.  Replaces ``run`` with the
    event-loop driver and implements the runner's client protocol; the
    numeric hooks (``_async_worker_step``, ``close_round``,
    ``cloud_sync``) come from the concrete subclass.
    """

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
        self.simulation = None
        self.runner: EventLoopRunner | None = None

    def config(self) -> dict:
        return {
            **super().config(),
            "quorum": self.deployment.quorum,
            "staleness_decay": self.staleness_decay,
        }

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
        if np.isfinite(loss):
            self._loss_sum += loss
            self._loss_count += 1
        return loss

    def round_complete(self, round_index: int, time: float) -> None:
        """Barrier notification: every group finished ``round_index``."""
        if self._records_gammas:
            self.history.record_gammas(
                self._gamma_pending.pop(round_index, {})
            )
        t = min(round_index * self.tau, self._total_iterations)
        if t % self._eval_every == 0 or t == self._total_iterations:
            accuracy, loss = self.fed.evaluate(self._global_eval_params())
            train = (
                self._loss_sum / self._loss_count
                if self._loss_count
                else float("nan")
            )
            self.history.record_eval(t, accuracy, loss, train_loss=train)
            self.history.eval_times.append(float(time))
            self._loss_sum = 0.0
            self._loss_count = 0
            self._emit_eval(t, accuracy, loss, train, sim_time=float(time))
        # Round barriers are the async analogue of the lockstep rebind
        # point: every group has aggregated and redistributed, so slot
        # adoption sees broadcast-coherent rows.  Runs before the
        # engine's checkpoint hook for the same snapshot-after-rebind
        # guarantee the lockstep driver gives.
        population = self.population
        if (
            population is not None
            and t % population.resample_every == 0
            and t < self._total_iterations
        ):
            population.resample(
                self, t // population.resample_every, iteration=t
            )

    def monitor_round_data(self, group: int, round_index: int) -> dict:
        """Algorithm payload for the engine's ``edge_round`` events."""
        if not self._records_gammas:
            return {}
        gamma = self._gamma_pending.get(round_index, {}).get(group)
        if gamma is None:
            return {}
        return {"gammas": {str(group): float(gamma)}}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def _async_setup(self) -> None:
        # Last model each worker *received* — the evaluation view.  The
        # live ``x`` rows of mid-interval workers are private state no
        # deployment could actually read.
        self._eval_x = self.x.copy()
        self._stale_store: dict[int, tuple] = {}
        self._gamma_pending: dict[int, dict[int, float]] = {}
        self._loss_sum = 0.0
        self._loss_count = 0

    def _global_eval_params(self) -> np.ndarray:
        return self.fed.global_average_workers(self._eval_x)

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
        values["async:loss_sum"] = self._loss_sum
        values["async:loss_count"] = self._loss_count
        return values

    def restore_values(self, values: dict) -> None:
        values = dict(values)
        pending = values.pop("async:gamma_pending")
        self._loss_sum = float(values.pop("async:loss_sum"))
        self._loss_count = int(values.pop("async:loss_count"))
        super().restore_values(values)
        self._gamma_pending = {
            int(r): {int(g): float(v) for g, v in groups.items()}
            for r, groups in pending.items()
        }

    def run(
        self,
        total_iterations: int,
        *,
        eval_every: int | None = None,
        history: TrainingHistory | None = None,
        stop_on_divergence: bool = True,
        checkpoints=None,
        resume_from=None,
    ) -> TrainingHistory:
        """Train for ``total_iterations`` under the event-driven engine.

        Evaluations only happen at round-complete barriers (the only
        points with a coherent global model), so ``eval_every`` is
        rounded up to a multiple of ``tau``.  The same applies to
        ``checkpoints``: snapshots land at the first barrier whose
        nominal iteration the manager's schedule selects.  Resuming from
        a snapshot (``resume_from``) restores the full engine state —
        event queue, in-flight uploads, simulation RNG — and replays the
        remaining events bit-exact with an uninterrupted run.
        """
        total_iterations = check_positive_int(
            total_iterations, "total_iterations"
        )
        if eval_every is None:
            eval_every = max(1, total_iterations // 10)
        eval_every = check_positive_int(eval_every, "eval_every")
        eval_every = int(math.ceil(eval_every / self.tau)) * self.tau

        if resume_from is not None:
            if resume_from.driver_kind != "event":
                raise ValueError(
                    f"checkpoint was written by the "
                    f"{resume_from.driver_kind!r} driver, not the event "
                    f"driver"
                )
            history = resume_from.build_history()
        if history is None:
            history = self.fed.new_history(self.name, self.config())
        self.history = history
        history.comm.configure(
            dim=self.fed.dim, payload_multiplier=self.payload_multiplier
        )
        faults = self.faults
        if faults is not None:
            faults.reset()
        self._up_mask = None

        self._setup()
        self._async_setup()
        self._eval_every = eval_every
        self._total_iterations = total_iterations
        if self.population is not None:
            self.population.reset(self)
        if resume_from is not None:
            resume_from.apply(self)
        self._emit_run_start(total_iterations, eval_every)
        alerts_seen = self._alert_mark

        if resume_from is None:
            accuracy, loss = self.fed.evaluate(self._global_eval_params())
            history.record_eval(0, accuracy, loss, train_loss=float("nan"))
            history.eval_times.append(0.0)

        runner = EventLoopRunner(
            self,
            self.deployment,
            tau=self.tau,
            pi=getattr(self, "pi", 1),
            total_iterations=total_iterations,
            faults=faults,
            rng=self.sim_rng,
            flat=self.FLAT,
            stop_on_divergence=stop_on_divergence,
        )
        self.runner = runner
        if resume_from is not None:
            runner.load_state_dict(resume_from.driver_state)
        if checkpoints is not None:

            def checkpoint_hook(active_runner) -> None:
                nonlocal alerts_seen
                monitor = get_monitor()
                alerts_now = len(monitor.alerts) if monitor.enabled else 0
                t = min(
                    active_runner._notified * self.tau, total_iterations
                )
                periodic = checkpoints.should_save(t)
                if not periodic and alerts_now <= alerts_seen:
                    return
                checkpoints.save(
                    self,
                    iteration=t,
                    driver={
                        "kind": "event",
                        "state": active_runner.state_dict(),
                    },
                    total_iterations=total_iterations,
                    eval_every=eval_every,
                    reason="periodic" if periodic else "alert",
                )
                alerts_seen = alerts_now

            runner.checkpoint_hook = checkpoint_hook
        try:
            if resume_from is None:
                self._emit_eval(0, accuracy, loss, float("nan"), sim_time=0.0)
            else:
                self._emit_checkpoint_restored(resume_from)
            self.simulation = runner.run(resume=resume_from is not None)
            if stop_on_divergence and runner.diverged_at is not None:
                history.diverged = True
                history.diverged_at = runner.diverged_at
                accuracy, loss = self.fed.evaluate(self._global_eval_params())
                history.record_eval(
                    runner.diverged_at,
                    accuracy,
                    loss,
                    train_loss=runner.diverged_loss,
                )
                history.eval_times.append(runner.last_event_time)
                self._emit_eval(
                    runner.diverged_at,
                    accuracy,
                    loss,
                    runner.diverged_loss,
                    sim_time=runner.last_event_time,
                )
        except MonitorAbort as abort:
            # The runner's finally-clause built ``result`` from the
            # rounds completed before the abort.
            self.simulation = runner.result
            history.aborted_by = abort.alert.monitor
            iteration = abort.alert.iteration
            if not history.iterations or history.iterations[-1] != iteration:
                accuracy, loss = self.fed.evaluate(self._global_eval_params())
                history.record_eval(
                    iteration, accuracy, loss, train_loss=float("nan")
                )
                history.eval_times.append(runner.last_event_time)
        return self._finish_run(history)

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
