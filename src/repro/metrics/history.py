"""Training history recorder.

Every algorithm run produces a :class:`TrainingHistory`: accuracy/loss
sampled on an evaluation schedule, plus algorithm-specific traces (the
adaptive γℓ values, communication events) used by the figures and the
trace-driven time simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.ledger import CommLedger

__all__ = ["TrainingHistory"]


@dataclass
class TrainingHistory:
    """Time series produced by one federated training run."""

    algorithm: str
    config: dict = field(default_factory=dict)

    iterations: list[int] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)

    # Simulated wall-clock time of each evaluation point, filled only by
    # the event-driven runs (lockstep runs price time post hoc instead);
    # empty list = no time axis.  Aligned with ``iterations``.
    eval_times: list[float] = field(default_factory=list)

    # γℓ trace: one dict per edge aggregation {edge -> γℓ used}.
    gamma_trace: list[dict[int, float]] = field(default_factory=list)

    # Communication ledger: rounds, transfers and (closed-form) bytes per
    # tier, the run's one home for them.  Algorithms record through
    # ``comm`` directly.
    comm: CommLedger = field(default_factory=CommLedger)

    # Aggregated tracer view (``Tracer.summary()``) when the run executed
    # under an enabled tracer; None otherwise.
    trace_summary: dict | None = None

    # Fault-injection digest (``FaultInjector.summary()``: the plan,
    # realized event counts, round outcomes) when the run had a fault
    # plan attached; None otherwise.
    fault_summary: dict | None = None

    # Set when the run was stopped early on a non-finite training loss.
    diverged: bool = False
    diverged_at: int | None = None

    # Health-monitor findings (``Alert.to_dict()`` records) when the run
    # executed under an active monitor; empty otherwise.  ``aborted_by``
    # names the monitor that stopped the run via ``MonitorAbort``.
    alerts: list[dict] = field(default_factory=list)
    aborted_by: str | None = None

    def record_eval(
        self,
        iteration: int,
        test_accuracy: float,
        test_loss: float,
        train_loss: float,
    ) -> None:
        """Append one evaluation point."""
        self.iterations.append(int(iteration))
        self.test_accuracy.append(float(test_accuracy))
        self.test_loss.append(float(test_loss))
        self.train_loss.append(float(train_loss))

    def record_gammas(self, gammas: dict[int, float]) -> None:
        """Record the γℓ used at one edge aggregation."""
        self.gamma_trace.append({int(k): float(v) for k, v in gammas.items()})

    @property
    def final_accuracy(self) -> float:
        """Accuracy at the last evaluation point."""
        if not self.test_accuracy:
            raise ValueError("history has no evaluation points")
        return self.test_accuracy[-1]

    @property
    def best_accuracy(self) -> float:
        """Best accuracy over the run."""
        if not self.test_accuracy:
            raise ValueError("history has no evaluation points")
        return max(self.test_accuracy)

    def iterations_to_accuracy(self, target: float) -> int | None:
        """First recorded iteration whose accuracy reaches ``target``.

        Returns ``None`` if the run never got there — callers must handle
        that case (the paper's Fig. 2 h/l time-to-accuracy comparison).
        """
        for iteration, accuracy in zip(self.iterations, self.test_accuracy):
            if accuracy >= target:
                return iteration
        return None

    def time_to_accuracy(self, target: float) -> float | None:
        """Simulated wall-clock time at which accuracy reached ``target``.

        Requires ``eval_times`` (event-driven runs record it; lockstep
        runs leave it empty).  Returns ``None`` if the run never got
        there — the emergent Fig. 2 h/l comparison.
        """
        if len(self.eval_times) != len(self.iterations):
            raise ValueError(
                "history has no simulated time axis (eval_times not "
                "recorded by this run)"
            )
        for time, accuracy in zip(self.eval_times, self.test_accuracy):
            if accuracy >= target:
                return time
        return None
