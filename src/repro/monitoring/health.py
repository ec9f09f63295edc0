"""Health monitors: streaming run diagnosis with structured alerts.

A :class:`HealthMonitor` subscribes to the run-event stream through the
hub and answers one question per event: *is this run still healthy?*
When the answer is no it returns an :class:`Alert` — a structured
record that the hub fans out to every sink (as an ``alert`` event)
and the run attaches to its
:class:`~repro.metrics.history.TrainingHistory` (serialized with it).

A monitor constructed with ``abort=True`` additionally stops the run:
the hub raises :class:`MonitorAbort` after dispatching the alert, and
the run driver ``FLAlgorithm.run`` catches it on either clock (lockstep
or event-driven), records a final evaluation point (on the event clock
at the simulated time of the last event) and finishes the history
cleanly (``history.aborted_by`` names the monitor) instead of burning
the remaining iteration budget.

Monitors are stateful per run; build a fresh set per monitoring session
(:func:`default_monitors`).  Each one re-arms after the condition
clears, so a long run reports episodes, not one alert per event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.monitoring.events import EDGE_ROUND, EVAL, RunEvent

__all__ = [
    "Alert",
    "MonitorAbort",
    "HealthMonitor",
    "DivergenceMonitor",
    "PlateauMonitor",
    "QuorumStarvationMonitor",
    "StalenessRunawayMonitor",
    "FaultBudgetMonitor",
    "default_monitors",
]

# Thresholds of the standard battery.
EXPLODE_FACTOR = 1e3  # train loss this many times the first one diverged
PATIENCE = 5  # evals without improvement that make a plateau
MIN_DELTA = 1e-3  # the accuracy gain that counts as improvement
STARVATION_STREAK = 3  # consecutive forced closures that starve a group
MAX_STALENESS = 3  # a fold this many rounds old is runaway staleness
MAX_STALE_FRACTION = 0.5  # stale share of members over the window
STALE_WINDOW = 5  # edge rounds the stale share is taken over
FAULT_BUDGET = 1000  # realized fault events a run may absorb


@dataclass(slots=True)
class Alert:
    """One health-monitor finding."""

    monitor: str
    severity: str  # "warning" | "critical"
    message: str
    iteration: int = 0
    wall_time: float = 0.0
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "monitor": self.monitor,
            "severity": self.severity,
            "message": self.message,
            "iteration": self.iteration,
            "wall_time": self.wall_time,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Alert":
        return cls(
            monitor=str(payload["monitor"]),
            severity=str(payload.get("severity", "warning")),
            message=str(payload.get("message", "")),
            iteration=int(payload.get("iteration", 0)),
            wall_time=float(payload.get("wall_time", 0.0)),
            data=dict(payload.get("data", {})),
        )


class MonitorAbort(RuntimeError):
    """Raised by the hub when an aborting monitor fires.

    Carries the triggering :class:`Alert`; the run drivers catch it and
    end the run cleanly.
    """

    def __init__(self, alert: Alert):
        super().__init__(
            f"run aborted by monitor {alert.monitor!r}: {alert.message}"
        )
        self.alert = alert


class HealthMonitor:
    """Base class: observe events, return an :class:`Alert` or None."""

    name = "health"

    def __init__(self, *, abort: bool = False):
        self.abort = bool(abort)

    def observe(self, event: RunEvent) -> Alert | None:
        raise NotImplementedError

    def _alert(
        self,
        event: RunEvent,
        message: str,
        *,
        severity: str = "warning",
        **data,
    ) -> Alert:
        return Alert(
            monitor=self.name,
            severity=severity,
            message=message,
            iteration=event.iteration,
            wall_time=event.wall_time,
            data=data,
        )


class DivergenceMonitor(HealthMonitor):
    """Non-finite or exploding training loss.

    Fires (severity ``critical``) when an ``eval`` event carries a
    non-finite train/test loss, or a finite train loss more than
    :data:`EXPLODE_FACTOR` times the first finite train loss of the run.
    Fires once — a diverging run does not recover.
    """

    name = "divergence"

    def __init__(self, *, abort: bool = False):
        super().__init__(abort=abort)
        self._reference: float | None = None
        self._fired = False

    def observe(self, event: RunEvent) -> Alert | None:
        if event.kind != EVAL or self._fired:
            return None
        test = event.data.get("test_loss")
        if test is not None and not math.isfinite(test):
            self._fired = True
            return self._alert(
                event,
                f"non-finite test loss at iteration {event.iteration}",
                severity="critical",
                loss=float(test),
            )
        train = event.data.get("train_loss")
        # NaN train loss means "no measurement here" by repo convention
        # (iteration 0, abort-path evals) — only an infinity diverges.
        if train is None or math.isnan(train):
            return None
        if math.isinf(train):
            self._fired = True
            return self._alert(
                event,
                f"non-finite train loss at iteration {event.iteration}",
                severity="critical",
                loss=float(train),
            )
        if self._reference is None:
            # The first finite value anchors the explosion reference.
            self._reference = float(train)
            return None
        if abs(train) > EXPLODE_FACTOR * max(abs(self._reference), 1e-12):
            self._fired = True
            return self._alert(
                event,
                f"train loss {train:.3g} exploded past "
                f"{EXPLODE_FACTOR:g}x the initial {self._reference:.3g}",
                severity="critical",
                loss=float(train),
                reference=self._reference,
            )
        return None


class PlateauMonitor(HealthMonitor):
    """Test accuracy stopped improving.

    Fires (once per stall episode) when :data:`PATIENCE` consecutive
    ``eval`` events fail to improve the best seen accuracy by at least
    :data:`MIN_DELTA`; re-arms as soon as accuracy improves again.
    """

    name = "plateau"

    def __init__(self, *, abort: bool = False):
        super().__init__(abort=abort)
        self._best = -math.inf
        self._stalled = 0
        self._fired = False

    def observe(self, event: RunEvent) -> Alert | None:
        if event.kind != EVAL:
            return None
        accuracy = event.data.get("accuracy")
        if accuracy is None or not math.isfinite(accuracy):
            return None
        if accuracy >= self._best + MIN_DELTA:
            self._best = float(accuracy)
            self._stalled = 0
            self._fired = False
            return None
        self._best = max(self._best, float(accuracy))
        self._stalled += 1
        if self._stalled >= PATIENCE and not self._fired:
            self._fired = True
            return self._alert(
                event,
                f"accuracy plateaued at {self._best:.4f} for "
                f"{self._stalled} evaluations",
                best_accuracy=self._best,
                stalled_evals=self._stalled,
            )
        return None


class QuorumStarvationMonitor(HealthMonitor):
    """Edge rounds keep force-closing below quorum.

    The event-driven engine closes a round that can no longer reach its
    quorum (``forced=True`` on the ``edge_round`` event).  An
    occasional forced closure is survivable message loss;
    :data:`STARVATION_STREAK` *consecutive* ones on the same group mean
    the group is starved and the configured quorum is unreachable.
    Re-arms on a clean closure.
    """

    name = "quorum_starvation"

    def __init__(self, *, abort: bool = False):
        super().__init__(abort=abort)
        self._streaks: dict[int, int] = {}
        self._fired: set[int] = set()

    def observe(self, event: RunEvent) -> Alert | None:
        if event.kind != EDGE_ROUND:
            return None
        group = int(event.data.get("group", event.data.get("edge", 0)))
        if not event.data.get("forced"):
            self._streaks[group] = 0
            self._fired.discard(group)
            return None
        streak = self._streaks.get(group, 0) + 1
        self._streaks[group] = streak
        if streak >= STARVATION_STREAK and group not in self._fired:
            self._fired.add(group)
            return self._alert(
                event,
                f"edge {group} force-closed {streak} consecutive rounds "
                "below quorum",
                group=group,
                consecutive_forced=streak,
            )
        return None


class StalenessRunawayMonitor(HealthMonitor):
    """Stale contributions are aging past the useful horizon.

    Watches the staleness values folded at each ``edge_round``.  Fires
    when a fold arrives :data:`MAX_STALENESS` or more rounds old, or
    when more than :data:`MAX_STALE_FRACTION` of the members folded
    stale over the last :data:`STALE_WINDOW` rounds — a federation
    whose buffers only ever grow older is drifting, not converging.
    Re-arms after a stale-free round.
    """

    name = "staleness_runaway"

    def __init__(self, *, abort: bool = False):
        super().__init__(abort=abort)
        self._recent: deque[tuple[int, int]] = deque(maxlen=STALE_WINDOW)
        self._fired = False

    def observe(self, event: RunEvent) -> Alert | None:
        if event.kind != EDGE_ROUND:
            return None
        staleness = [int(s) for s in event.data.get("staleness", ())]
        members = int(event.data.get("members", 0))
        self._recent.append((len(staleness), members))
        if not staleness:
            self._fired = False
            return None
        worst = max(staleness)
        if worst >= MAX_STALENESS and not self._fired:
            self._fired = True
            return self._alert(
                event,
                f"stale contribution {worst} rounds old folded at edge "
                f"{event.data.get('group', '?')} "
                f"(limit {MAX_STALENESS})",
                staleness=worst,
            )
        total_members = sum(m for _, m in self._recent)
        total_stale = sum(s for s, _ in self._recent)
        if (
            total_members
            and len(self._recent) == self._recent.maxlen
            and total_stale / total_members > MAX_STALE_FRACTION
            and not self._fired
        ):
            self._fired = True
            return self._alert(
                event,
                f"{total_stale}/{total_members} contributions stale over "
                f"the last {self._recent.maxlen} rounds",
                stale=total_stale,
                members=total_members,
            )
        return None


class FaultBudgetMonitor(HealthMonitor):
    """Cumulative realized fault events exceeded the run's budget.

    ``eval`` events from runs with an attached
    :class:`~repro.faults.FaultInjector` carry the cumulative
    ``fault_events`` count; once it passes :data:`FAULT_BUDGET` the
    deployment is degrading faster than the experiment accounted for.
    Fires once.
    """

    name = "fault_budget"

    def __init__(self, *, abort: bool = False):
        super().__init__(abort=abort)
        self._fired = False

    def observe(self, event: RunEvent) -> Alert | None:
        if event.kind != EVAL or self._fired:
            return None
        realized = event.data.get("fault_events")
        if realized is None or realized <= FAULT_BUDGET:
            return None
        self._fired = True
        return self._alert(
            event,
            f"{int(realized)} realized fault events exceeded the budget "
            f"of {FAULT_BUDGET}",
            fault_events=int(realized),
            budget=FAULT_BUDGET,
        )


def default_monitors(*, abort: bool = False) -> list[HealthMonitor]:
    """The standard battery, at the module's thresholds.

    ``abort`` applies only to the divergence monitor — the one
    condition a run can never recover from; the rest always just alert.
    """
    return [
        DivergenceMonitor(abort=abort),
        PlateauMonitor(),
        QuorumStarvationMonitor(),
        StalenessRunawayMonitor(),
        FaultBudgetMonitor(),
    ]
