"""Base class shared by every federated-learning algorithm.

Subclasses implement three hooks:

* ``_setup()`` — allocate per-worker / per-edge / server state,
* ``_step(t)`` — one local iteration across all workers plus whatever
  aggregation the algorithm schedules at ``t``; returns the mean training
  batch loss of the iteration,
* ``_global_params()`` — the algorithm's current notion of the global
  model (evaluated on the test set at each evaluation point).

``run`` drives the iteration loop, the evaluation schedule and history
recording so individual algorithms stay close to their paper pseudocode.
"""

from __future__ import annotations

import numpy as np

from repro.core.federation import Federation
from repro.faults import (
    EVERYONE,
    FaultInjector,
    FaultPlan,
    RoundOutcome,
    check_policy,
    degrade_round,
)
from repro.metrics.history import TrainingHistory
from repro.monitoring.events import CHECKPOINT_RESTORED
from repro.monitoring.health import MonitorAbort
from repro.monitoring.monitor import get_monitor
from repro.telemetry import get_tracer
from repro.utils.memory import peak_rss_bytes
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["FLAlgorithm"]


class FLAlgorithm:
    """Abstract federated-learning algorithm."""

    name = "base"

    # Wire payload per transfer, in model-vector units: 1.0 for plain
    # model shippers, 2.0 for algorithms that move model *and* momentum
    # (or another server statistic) on every exchange.  Feeds both the
    # run's communication ledger and the Fig. 2 timing replay.
    payload_multiplier = 1.0

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
        eta_schedule=None,
    ):
        self.fed = federation
        self.eta = check_positive(eta, "eta")
        # Optional callable t -> learning rate (0-indexed iteration);
        # applied before every _step so every algorithm supports decayed
        # or warmed-up learning rates without per-algorithm code.
        self.eta_schedule = eta_schedule
        # Fault injection (off by default): an attached injector feeds
        # the per-iteration availability mask consulted by the worker
        # loops and aggregations; ``None`` mask = everyone up.
        self.faults: FaultInjector | None = None
        self.degradation = "renormalize"
        self._up_mask: np.ndarray | None = None
        # Virtual-population binder (off by default): when attached,
        # the run driver rebinds the materialized cohort at every
        # resample boundary (see repro.population.binder).
        self.population = None
        # Index into the active monitor's alert list at run start, so
        # only this run's alerts land on its history.
        self._alert_mark = 0

    def attach_faults(
        self,
        plan: FaultPlan | FaultInjector,
        *,
        policy: str = "renormalize",
    ) -> FaultInjector:
        """Attach a fault plan (or prebuilt injector) to this run.

        ``policy`` selects the degradation behaviour on absences (see
        :data:`repro.faults.DEGRADATION_POLICIES`).  Returns the
        injector so callers can read its realized-event summary.
        """
        if isinstance(plan, FaultInjector):
            self.faults = plan
        else:
            self.faults = FaultInjector(
                plan,
                num_workers=self.fed.num_workers,
                num_edges=self.fed.num_edges,
            )
        self.degradation = check_policy(policy)
        return self.faults

    def attach_population(self, binder):
        """Attach a virtual-population binder to this run.

        The binder must own this algorithm's federation (its slot pool
        maps into the same stacked buffers).  ``resample_every``
        defaults to the algorithm's round length ``tau`` so cohorts
        change exactly at aggregation boundaries, where worker rows are
        broadcast-equal and slot adoption is well-defined.
        """
        if binder.fed is not self.fed:
            raise ValueError(
                "population binder was built for a different federation"
            )
        if binder.resample_every is None:
            binder.resample_every = int(getattr(self, "tau", 1))
        self.population = binder
        return binder

    def _iteration_rows(self) -> slice | np.ndarray:
        """Selector of this iteration's up workers (:data:`EVERYONE` = all)."""
        mask = self._up_mask
        return EVERYONE if mask is None else np.flatnonzero(mask)

    def _gradient_iteration(
        self, params: np.ndarray, rows: slice | np.ndarray
    ) -> float:
        """The ``rows`` workers' gradients into ``self._grads``; mean loss.

        The shared inner-loop step every algorithm's ``_step`` builds
        on: one :meth:`Federation.gradient_all` call (batched engine
        when available, per-worker loop otherwise) filling the selected
        rows of the stacked gradient matrix.
        """
        losses = self.fed.gradient_all(params, rows=rows, out=self._grads)
        return float(losses.mean())

    # ------------------------------------------------------------------
    # Round membership (three-tier algorithms with ``tau``)
    # ------------------------------------------------------------------
    def _edge_rounds(self, t: int):
        """Yield ``(edge, rows, outcome)`` for each edge round held at ``t``.

        ``rows`` is the edge's worker block; ``outcome`` selects within
        it.  A dark edge holds no round (no aggregation, no traffic):
        its workers keep training on local state until it is back.
        """
        fed = self.fed
        faults = self.faults
        edge_up = self._edge_mask(t)
        up_mask = self._up_mask
        for edge, rows in enumerate(fed.edge_slices):
            if edge_up is not None and not edge_up[edge]:
                faults.note_round("skipped")
                continue
            outcome = degrade_round(
                faults,
                self.degradation,
                fed.worker_w_in_edge[edge],
                None if up_mask is None else up_mask[rows],
            )
            if not outcome.skip:
                yield edge, rows, outcome

    def _cloud_round(self, t: int) -> RoundOutcome:
        """The cloud round at ``t``, resolved over the edges."""
        return degrade_round(
            self.faults, self.degradation, self.fed.edge_w, self._edge_mask(t)
        )

    def _edge_mask(self, t: int) -> np.ndarray | None:
        """Edge availability in the interval of ``t`` (``None`` = all up)."""
        if self.faults is None:
            return None
        return self.faults.edge_mask(t // self.tau)

    def _cloud_upload(self, label: str, matrix: np.ndarray) -> np.ndarray:
        """The edge-state ``matrix`` as the cloud receives it.

        Staleness hits the WAN uploads whatever else the round realized.
        """
        if self.faults is None:
            return matrix
        return self.faults.stale_substitute(label, matrix)

    def _cloud_receivers(self, edges) -> tuple[slice | np.ndarray, int]:
        """Worker selector the cloud result reaches, and its size.

        The result travels down through the receiving ``edges`` (an
        edge selector) to the workers that are up this iteration.
        """
        fed = self.fed
        reached = np.zeros(fed.num_edges, dtype=bool)
        reached[edges] = True
        mask = np.repeat(
            reached, [rows.stop - rows.start for rows in fed.edge_slices]
        )
        if self._up_mask is not None:
            mask &= self._up_mask
        count = int(mask.sum())
        if count == fed.num_workers:
            return EVERYONE, count
        return np.flatnonzero(mask), count

    # ------------------------------------------------------------------
    # Checkpoint protocol
    # ------------------------------------------------------------------
    # Names of the numpy matrices / JSON-able scalars that fully define
    # this algorithm's training state between iterations.  Dotted names
    # reach into sub-objects (e.g. "controller.grad_sums").  Scratch
    # buffers recomputed every step (like ``_grads``) are excluded.
    CKPT_ARRAYS: tuple[str, ...] = ()
    CKPT_VALUES: tuple[str, ...] = ()
    # Per-client persistent state: the (num_workers, dim) arrays whose
    # rows belong to the *client* bound to a slot, not to the slot
    # itself (momentum/optimizer buffers).  The population binder
    # carries these rows for evicted clients and restores them
    # bit-exactly on return.  The model row ``x`` is excluded by
    # design: rejoining clients adopt the current broadcast model.
    CLIENT_STATE: tuple[str, ...] = ()

    def _ckpt_resolve(self, name: str):
        obj = self
        *head, leaf = name.split(".")
        for part in head:
            obj = getattr(obj, part)
        return obj, leaf

    def checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """Snapshot every declared state array (by reference)."""
        arrays: dict[str, np.ndarray] = {}
        for name in self.CKPT_ARRAYS:
            obj, leaf = self._ckpt_resolve(name)
            arrays[name] = getattr(obj, leaf)
        return arrays

    def checkpoint_values(self) -> dict:
        """Snapshot every declared JSON-able state value."""
        values: dict = {}
        for name in self.CKPT_VALUES:
            obj, leaf = self._ckpt_resolve(name)
            values[name] = getattr(obj, leaf)
        return values

    def checkpoint_extra(self) -> dict:
        """Per-class extras (RNG streams, engine state); JSON-able."""
        return {}

    def restore_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy a snapshot back over freshly ``_setup()``-allocated state."""
        for name in self.CKPT_ARRAYS:
            obj, leaf = self._ckpt_resolve(name)
            np.copyto(getattr(obj, leaf), arrays[name])

    def restore_values(self, values: dict) -> None:
        for name in self.CKPT_VALUES:
            obj, leaf = self._ckpt_resolve(name)
            setattr(obj, leaf, values[name])

    def restore_extra(self, extra: dict) -> None:
        pass

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _setup(self) -> None:
        raise NotImplementedError

    def _step(self, t: int) -> float:
        raise NotImplementedError

    def _global_params(self) -> np.ndarray:
        raise NotImplementedError

    def config(self) -> dict:
        """Hyper-parameters recorded into the history."""
        return {"eta": self.eta}

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------
    def _emit_eval(
        self,
        iteration: int,
        accuracy: float,
        test_loss: float,
        train_loss: float,
        *,
        sim_time: float | None = None,
    ) -> None:
        """Stream one evaluation point to the active monitor.

        Reads state only (losses already computed, ledger counters) so
        monitored and unmonitored runs stay bit-exact.  May raise
        :class:`MonitorAbort` when an aborting health monitor fires.
        """
        monitor = get_monitor()
        if not monitor.enabled:
            return
        comm = self.history.comm
        data = {
            "accuracy": float(accuracy),
            "test_loss": float(test_loss),
            "train_loss": float(train_loss),
            "worker_edge_bytes": comm.worker_edge_bytes,
            "edge_cloud_bytes": comm.edge_cloud_bytes,
            "total_bytes": comm.total_bytes,
            "peak_rss_bytes": peak_rss_bytes(),
        }
        if self.faults is not None:
            data["fault_events"] = int(sum(self.faults.counts.values()))
        monitor.emit("eval", iteration=iteration, sim_time=sim_time, **data)

    def _emit_run_start(self, total_iterations: int, eval_every: int) -> None:
        monitor = get_monitor()
        if not monitor.enabled:
            return
        self._alert_mark = len(monitor.alerts)
        monitor.emit(
            "run_start",
            algorithm=self.name,
            total_iterations=int(total_iterations),
            eval_every=int(eval_every),
            workers=self.fed.num_workers,
            edges=self.fed.num_edges,
            dim=self.fed.dim,
        )

    def _emit_checkpoint_restored(self, restored) -> None:
        monitor = get_monitor()
        if not monitor.enabled:
            return
        monitor.emit(
            CHECKPOINT_RESTORED,
            iteration=restored.iteration,
            path=str(restored.path),
        )

    def _abort_run(
        self, history: TrainingHistory, abort: MonitorAbort
    ) -> TrainingHistory:
        """Clean end-of-run path when a monitor raised :class:`MonitorAbort`.

        Records one final evaluation point (unless the abort fired on an
        eval event already recorded at that iteration) so the history
        ends at the abort, then finishes normally.
        """
        history.aborted_by = abort.alert.monitor
        iteration = abort.alert.iteration
        if not history.iterations or history.iterations[-1] != iteration:
            accuracy, loss = self.fed.evaluate(self._global_params())
            history.record_eval(
                iteration, accuracy, loss, train_loss=float("nan")
            )
        return self._finish_run(history)

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
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
        """Train for ``total_iterations`` local iterations (the paper's T).

        ``eval_every`` defaults to ten evaluations per run.  The final
        iteration is always evaluated.

        With ``stop_on_divergence`` (default), a non-finite training
        loss ends the run early and marks ``history.diverged`` instead
        of silently training on NaNs for the remaining iterations.

        ``checkpoints`` takes a
        :class:`~repro.checkpoint.CheckpointManager`: the driver saves a
        durable snapshot after each iteration the manager's schedule
        selects, and additionally whenever a health monitor raised a
        fresh alert.  ``resume_from`` takes a
        :class:`~repro.checkpoint.RestoredRun`; the run then continues
        from the snapshot's next iteration, bit-exact with an
        uninterrupted run (the ``history`` argument is ignored in favor
        of the checkpointed one).
        """
        total_iterations = check_positive_int(
            total_iterations, "total_iterations"
        )
        if eval_every is None:
            eval_every = max(1, total_iterations // 10)
        eval_every = check_positive_int(eval_every, "eval_every")

        if resume_from is not None:
            if resume_from.driver_kind != "lockstep":
                raise ValueError(
                    f"checkpoint was written by the "
                    f"{resume_from.driver_kind!r} driver, not lockstep"
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
        population = self.population
        if population is not None:
            population.reset(self)
        if resume_from is not None:
            resume_from.apply(self)
        self._emit_run_start(total_iterations, eval_every)
        alerts_seen = self._alert_mark

        start_iteration = 1
        running_loss = 0.0
        since_eval = 0
        if resume_from is None:
            accuracy, loss = self.fed.evaluate(self._global_params())
            # No training batches have run at iteration 0, so there is
            # no training loss to report (recording the test loss here,
            # as the seed implementation did, conflated the two series).
            history.record_eval(0, accuracy, loss, train_loss=float("nan"))
        else:
            state = resume_from.driver_state
            start_iteration = int(state["iteration"]) + 1
            running_loss = float(state["running_loss"])
            since_eval = int(state["since_eval"])

        try:
            if resume_from is None:
                self._emit_eval(0, accuracy, loss, float("nan"))
            else:
                self._emit_checkpoint_restored(resume_from)
            for t in range(start_iteration, total_iterations + 1):
                if faults is not None:
                    faults.maybe_crash(t)
                if self.eta_schedule is not None:
                    self.eta = check_positive(
                        self.eta_schedule(t - 1), "scheduled eta"
                    )
                if faults is not None:
                    self._up_mask = faults.worker_mask(t)
                step_loss = self._step(t)
                if stop_on_divergence and not np.isfinite(step_loss):
                    history.diverged = True
                    history.diverged_at = t
                    accuracy, loss = self.fed.evaluate(self._global_params())
                    history.record_eval(
                        t, accuracy, loss, train_loss=step_loss
                    )
                    self._emit_eval(t, accuracy, loss, step_loss)
                    return self._finish_run(history)
                running_loss += step_loss
                since_eval += 1
                if t % eval_every == 0 or t == total_iterations:
                    accuracy, loss = self.fed.evaluate(self._global_params())
                    train_loss = running_loss / since_eval
                    history.record_eval(
                        t, accuracy, loss, train_loss=train_loss
                    )
                    self._emit_eval(t, accuracy, loss, train_loss)
                    running_loss = 0.0
                    since_eval = 0
                # Cohort rebinding runs before the checkpoint block so
                # a snapshot at t always captures the post-rebind slot
                # pool and resume never misses a membership change.
                if (
                    population is not None
                    and t % population.resample_every == 0
                    and t < total_iterations
                ):
                    population.resample(
                        self, t // population.resample_every, iteration=t
                    )
                if checkpoints is not None:
                    monitor = get_monitor()
                    alerts_now = (
                        len(monitor.alerts) if monitor.enabled else 0
                    )
                    periodic = checkpoints.should_save(t)
                    if periodic or alerts_now > alerts_seen:
                        checkpoints.save(
                            self,
                            iteration=t,
                            driver={
                                "kind": "lockstep",
                                "state": {
                                    "iteration": t,
                                    "running_loss": running_loss,
                                    "since_eval": since_eval,
                                },
                            },
                            total_iterations=total_iterations,
                            eval_every=eval_every,
                            reason="periodic" if periodic else "alert",
                        )
                        alerts_seen = alerts_now
        except MonitorAbort as abort:
            return self._abort_run(history, abort)
        return self._finish_run(history)

    def _finish_run(self, history: TrainingHistory) -> TrainingHistory:
        """Attach tracer/fault/monitor digests when the run recorded them."""
        tracer = get_tracer()
        if tracer.enabled:
            history.trace_summary = tracer.summary()
        if self.faults is not None:
            history.fault_summary = self.faults.summary()
        monitor = get_monitor()
        if monitor.enabled:
            history.alerts.extend(
                alert.to_dict() for alert in monitor.alerts[self._alert_mark:]
            )
            if history.aborted_by:
                status = "aborted"
            elif history.diverged:
                status = "diverged"
            else:
                status = "finished"
            monitor.emit(
                "run_end",
                iteration=history.iterations[-1] if history.iterations else 0,
                status=status,
                aborted_by=history.aborted_by,
                final_accuracy=(
                    history.test_accuracy[-1] if history.test_accuracy else None
                ),
                total_bytes=history.comm.total_bytes,
                alerts=len(history.alerts),
            )
        return history
