"""Base class shared by every federated-learning algorithm.

An algorithm is a set of rules on one schedule.  ``_step(t)`` is the
schedule's iteration: it computes the up workers' gradients, applies the
worker rule and hands ``t`` to ``_aggregate``, which here runs the
three-tier schedule of the paper's Algorithm 1 (an edge round every
``tau`` iterations, a cloud round every ``tau·pi``) with the fault
plumbing, γℓ recording, ledger billing and monitor events done once.
Subclasses implement the rules:

* ``_setup()`` — allocate per-worker / per-edge / server state;
* ``_local_update(rows)`` — the worker rule on the ``rows`` workers,
  whose fresh gradients sit in ``self._grads`` (local SGD by default);
* ``_edge_merge(edge, rows, outcome)`` — the edge rule for one edge
  round (returns the edge's γℓ when it adapts one);
* ``_cloud_merge(outcome)`` — the cloud rule; ``_cloud_push(edges)``
  gives it (and bills) the workers its result reaches;
* ``_global_params()`` — the algorithm's current notion of the global
  model (the data-weighted worker average by default), evaluated on
  the test set at each evaluation point.

Two-tier algorithms (:class:`repro.algorithms.TwoTierAlgorithm`) swap
``_aggregate`` for one global round around a server rule.

``run`` is the one run driver.  It owns the lifecycle (history, fault
and population resets, resume, the initial evaluation, the divergence
stop, monitor aborts) and advances time through one clock method,
``_run_clock``.  The lockstep clock here loops ``_step(t)`` over the
iterations; the event clock of
:class:`repro.algorithms.AsyncExecutionMixin` runs the
:class:`~repro.simulation.engine.EventLoopRunner` and applies the same
worker rule to each wave of worker steps the engine hands over.  Both
clocks end each round at a barrier where the shared helpers run: the
scheduled evaluation, the cohort rebind and the periodic-or-alert
checkpoint, which stores the clock's state with the train-loss window.
"""

from __future__ import annotations

import math

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
    # True for algorithms whose edge rule adapts a γℓ per edge round:
    # the rounds then land in ``history.gamma_trace`` and the monitor's
    # ``edge_round`` events.
    _records_gammas = False

    def __init__(
        self,
        federation: Federation,
        *,
        eta: float = 0.01,
    ):
        self.fed = federation
        self.eta = check_positive(eta, "eta")
        # Optional callable t -> learning rate (0-indexed iteration), set
        # on the instance; applied before every _step so every algorithm
        # supports decayed or warmed-up learning rates without
        # per-algorithm code.
        self.eta_schedule = None
        # Fault injection (off by default): an attached injector feeds
        # the per-iteration availability mask consulted by the worker
        # loops and aggregations; ``None`` mask = everyone up.
        self.faults: FaultInjector | None = None
        self.degradation = "renormalize"
        self._up_mask: np.ndarray | None = None
        # Virtual-population binder (off by default): when attached,
        # the run driver rebinds the materialized cohort at every round
        # boundary τ (see repro.population.binder).
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
        maps into the same stacked buffers).  Cohorts change every
        ``tau`` iterations, exactly at aggregation boundaries, where
        worker rows are broadcast-equal and slot adoption is
        well-defined.
        """
        if binder.fed is not self.fed:
            raise ValueError(
                "population binder was built for a different federation"
            )
        self.population = binder
        return binder

    def _iteration_rows(self) -> slice | np.ndarray:
        """Selector of this iteration's up workers (:data:`EVERYONE` = all)."""
        mask = self._up_mask
        return EVERYONE if mask is None else np.flatnonzero(mask)

    def _gradient_iteration(self, rows: slice | np.ndarray) -> float:
        """The ``rows`` workers' gradients into ``self._grads``; mean loss.

        One :meth:`Federation.gradient_all` call at ``self.x`` filling
        the selected rows of the stacked gradient matrix.
        """
        losses = self.fed.gradient_all(self.x, rows=rows, out=self._grads)
        return float(losses.mean())

    def _step(self, t: int) -> float:
        """Iteration ``t`` on the lockstep clock; the mean batch loss.

        Dropped workers take no step: their state and sampler stay
        frozen until they come back.
        """
        with get_tracer().span("worker_step"):
            rows = self._iteration_rows()
            loss = self._gradient_iteration(rows)
            self._local_update(rows)
        self._aggregate(t)
        return loss

    def _local_update(self, rows: slice | np.ndarray) -> None:
        """The worker rule on the ``rows`` workers: local SGD."""
        self.x[rows] -= self.eta * self._grads[rows]

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

    def _cloud_push(self, edges) -> slice | np.ndarray:
        """Worker selector the cloud result reaches; bills the LAN leg.

        The result travels down through the receiving ``edges`` (an
        edge selector) to the workers that are up this iteration: extra
        worker↔edge traffic, but not an edge round.
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
        if count:
            self.history.comm.record_worker_edge(count, rounds=0)
        return EVERYONE if count == fed.num_workers else np.flatnonzero(mask)

    def _aggregate(self, t: int) -> None:
        """The three-tier schedule's rounds at ``t``.

        Every ``tau`` iterations each edge that holds a round applies
        the edge rule and the round bills its LAN transfers; every
        ``tau·pi`` the cloud rule runs over the edges and bills the WAN.
        One monitor event per tier and round.
        """
        tracer = get_tracer()
        if t % self.tau == 0:
            with tracer.span("edge_agg"):
                held: dict[int, float | None] = {}
                transfers = 0
                for edge, rows, outcome in self._edge_rounds(t):
                    held[edge] = self._edge_merge(edge, rows, outcome)
                    transfers += outcome.events
                if transfers:
                    self.history.comm.record_worker_edge(transfers)
            if self._records_gammas:
                self.history.record_gammas(held)
            if tracer.monitored:
                data = {}
                if self._records_gammas:
                    data["gammas"] = {str(k): v for k, v in held.items()}
                tracer.emit(
                    "edge_round",
                    iteration=t,
                    tier="edge",
                    **data,
                    edges=len(held),
                )
        if t % (self.tau * self.pi) == 0:
            with tracer.span("cloud_agg"):
                outcome = self._cloud_round(t)
                if not outcome.skip:
                    self._cloud_merge(outcome)
                    self.history.comm.record_edge_cloud(outcome.events)
            if tracer.monitored:
                tracer.emit(
                    "cloud_round",
                    iteration=t,
                    tier="cloud",
                    edges=self.fed.num_edges,
                )

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

    def _edge_merge(self, edge: int, rows: slice, outcome: RoundOutcome):
        """The edge rule for ``edge``'s round; its γℓ, if it adapts one."""
        raise NotImplementedError

    def _cloud_merge(self, outcome: RoundOutcome) -> None:
        raise NotImplementedError

    def _global_params(self) -> np.ndarray:
        """Data-weighted average of the current worker models."""
        return self.fed.global_average_workers(self.x)

    def config(self) -> dict:
        """Hyper-parameters recorded into the history."""
        return {"eta": self.eta}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    # The clock a run advances on, named in its checkpoints.  "lockstep"
    # is below: every worker takes iteration t's step together and every
    # iteration ends at a barrier.  The event clock
    # (repro.algorithms.AsyncExecutionMixin) overrides the clock hooks.
    DRIVER_KIND = "lockstep"

    def run(
        self,
        total_iterations: int,
        *,
        eval_every: int | None = None,
        checkpoints=None,
        resume_from=None,
    ) -> TrainingHistory:
        """Train for ``total_iterations`` local iterations (the paper's T).

        ``eval_every`` defaults to ten evaluations per run.  The final
        iteration is always evaluated.  Evaluations happen only at round
        barriers, so on the event clock ``eval_every`` is rounded up to
        a multiple of ``tau``.

        A non-finite training loss ends the run early and marks
        ``history.diverged`` instead of silently training on NaNs for
        the remaining iterations.

        ``checkpoints`` takes a
        :class:`~repro.checkpoint.CheckpointManager`: the driver saves a
        durable snapshot at each barrier whose iteration the manager's
        schedule selects, and additionally whenever a health monitor
        raised a fresh alert.  ``resume_from`` takes a
        :class:`~repro.checkpoint.RestoredRun` written by the same clock;
        the run then continues from the snapshot and its history,
        bit-exact with an uninterrupted run.
        """
        total_iterations = check_positive_int(
            total_iterations, "total_iterations"
        )
        if eval_every is None:
            eval_every = max(1, total_iterations // 10)
        eval_every = check_positive_int(eval_every, "eval_every")
        stride = self._barrier_stride()
        eval_every = int(math.ceil(eval_every / stride)) * stride

        if resume_from is not None:
            if resume_from.driver_kind != self.DRIVER_KIND:
                raise ValueError(
                    f"checkpoint was written by the "
                    f"{resume_from.driver_kind!r} driver, not the "
                    f"{self.DRIVER_KIND!r} driver"
                )
            history = resume_from.build_history()
        else:
            history = self.fed.new_history(self.name, self.config())
        self.history = history
        history.comm.configure(
            dim=self.fed.dim, payload_multiplier=self.payload_multiplier
        )
        if self.faults is not None:
            self.faults.reset()
        self._up_mask = None
        self._total_iterations = total_iterations
        self._eval_every = eval_every
        self._checkpoints = checkpoints
        # The train-loss window: sum and count of the step losses since
        # the last evaluation, checkpointed with the clock's state.
        self._loss_sum, self._loss_count = 0.0, 0

        self._setup()
        if self.population is not None:
            self.population.reset(self)
        clock_state = None
        if resume_from is not None:
            resume_from.apply(self)
            clock_state = resume_from.driver_state
            self._loss_sum = float(clock_state["running_loss"])
            self._loss_count = int(clock_state["since_eval"])
        tracer = get_tracer()
        self._alert_mark = self._alerts_seen = len(tracer.alerts)
        tracer.emit(
            "run_start",
            algorithm=self.name,
            total_iterations=int(total_iterations),
            eval_every=int(eval_every),
            workers=self.fed.num_workers,
            edges=self.fed.num_edges,
            dim=self.fed.dim,
        )

        try:
            if resume_from is None:
                # No training batches have run at iteration 0, so there
                # is no training loss to report (recording the test loss
                # here, as the seed implementation did, conflated the
                # two series).
                self._record_eval(0, float("nan"))
            else:
                tracer.emit(
                    CHECKPOINT_RESTORED,
                    iteration=resume_from.iteration,
                    path=str(resume_from.path),
                )
            diverged = self._run_clock(clock_state)
            if diverged is not None:
                history.diverged = True
                history.diverged_at, step_loss = diverged
                self._record_eval(history.diverged_at, step_loss)
        except MonitorAbort as abort:
            # End the history at the abort: one final evaluation point,
            # unless the abort fired on an eval already recorded there.
            history.aborted_by = abort.alert.monitor
            iteration = abort.alert.iteration
            if not history.iterations or history.iterations[-1] != iteration:
                self._record_eval(iteration, float("nan"), emit=False)
        return self._finish_run(history)

    # ------------------------------------------------------------------
    # Clock hooks (the lockstep clock; the event clock overrides them)
    # ------------------------------------------------------------------
    def _run_clock(self, state: dict | None) -> tuple[int, float] | None:
        """Advance the run to the end; ``(t, loss)`` if it diverged.

        ``state`` is the checkpointed clock state when resuming.
        """
        faults = self.faults
        start = 1 if state is None else int(state["iteration"]) + 1
        for t in range(start, self._total_iterations + 1):
            if faults is not None:
                faults.maybe_crash(t)
            if self.eta_schedule is not None:
                self.eta = check_positive(
                    self.eta_schedule(t - 1), "scheduled eta"
                )
            if faults is not None:
                self._up_mask = faults.worker_mask(t)
            step_loss = self._step(t)
            if not np.isfinite(step_loss):
                return t, step_loss
            self._loss_sum += step_loss
            self._loss_count += 1
            self._round_barrier(t)
            if self._checkpoints is not None:
                self._maybe_checkpoint(t)
        return None

    def _barrier_stride(self) -> int:
        """Iterations between two round barriers."""
        return 1

    def _clock_state(self, t: int) -> dict:
        """JSON-able clock state of a checkpoint at barrier ``t``."""
        return {"iteration": t}

    def _sim_time(self) -> float | None:
        """The clock's simulated time now (``None``: it has none)."""
        return None

    # ------------------------------------------------------------------
    # Round-barrier work shared by both clocks
    # ------------------------------------------------------------------
    def _round_barrier(self, t: int, sim_time: float | None = None) -> None:
        """Scheduled evaluation and cohort rebind at the barrier ending ``t``.

        Rebinding runs before the barrier's checkpoint so a snapshot at
        ``t`` always captures the post-rebind slot pool and resume never
        misses a membership change.
        """
        total = self._total_iterations
        if t % self._eval_every == 0 or t == total:
            count = self._loss_count
            train_loss = self._loss_sum / count if count else float("nan")
            self._record_eval(t, train_loss, sim_time=sim_time)
            self._loss_sum, self._loss_count = 0.0, 0
        population = self.population
        if population is not None and t % self.tau == 0 and t < total:
            population.resample(self, t // self.tau, iteration=t)

    def _record_eval(
        self,
        t: int,
        train_loss: float,
        *,
        sim_time: float | None = None,
        emit: bool = True,
    ) -> None:
        """Evaluate the global model into the history at iteration ``t``.

        ``eval_times`` gains an entry only when the clock has simulated
        time (``sim_time`` defaults to the clock's time now).
        """
        accuracy, loss = self.fed.evaluate(self._global_params())
        history = self.history
        history.record_eval(t, accuracy, loss, train_loss=train_loss)
        if sim_time is None:
            sim_time = self._sim_time()
        if sim_time is not None:
            history.eval_times.append(sim_time)
        tracer = get_tracer()
        if not (emit and tracer.monitored):
            return
        # Reads state only (losses already computed, ledger counters),
        # so monitored and unmonitored runs stay bit-exact.  May raise
        # MonitorAbort when an aborting health monitor fires.
        comm = history.comm
        data = {
            "accuracy": float(accuracy),
            "test_loss": float(loss),
            "train_loss": float(train_loss),
            "worker_edge_bytes": comm.worker_edge_bytes,
            "edge_cloud_bytes": comm.edge_cloud_bytes,
            "total_bytes": comm.total_bytes,
            "peak_rss_bytes": peak_rss_bytes(),
        }
        if self.faults is not None:
            data["fault_events"] = int(sum(self.faults.counts.values()))
        tracer.emit("eval", iteration=t, sim_time=sim_time, **data)

    def _maybe_checkpoint(self, t: int) -> None:
        """Save at barrier ``t`` if it is periodic or an alert is new."""
        checkpoints = self._checkpoints
        alerts_now = len(get_tracer().alerts)
        periodic = checkpoints.should_save(t)
        if not periodic and alerts_now <= self._alerts_seen:
            return
        checkpoints.save(
            self,
            iteration=t,
            driver={
                "kind": self.DRIVER_KIND,
                "state": {
                    **self._clock_state(t),
                    "running_loss": self._loss_sum,
                    "since_eval": self._loss_count,
                },
            },
            total_iterations=self._total_iterations,
            eval_every=self._eval_every,
            reason="periodic" if periodic else "alert",
        )
        self._alerts_seen = alerts_now

    def _finish_run(self, history: TrainingHistory) -> TrainingHistory:
        """Attach tracer/fault/monitor digests when the run recorded them."""
        tracer = get_tracer()
        if tracer.enabled:
            history.trace_summary = tracer.summary()
        if self.faults is not None:
            history.fault_summary = self.faults.summary()
        if tracer.monitored:
            history.alerts.extend(
                alert.to_dict() for alert in tracer.alerts[self._alert_mark:]
            )
            if history.aborted_by:
                status = "aborted"
            elif history.diverged:
                status = "diverged"
            else:
                status = "finished"
            tracer.emit(
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
