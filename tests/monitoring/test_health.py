"""Tests for the health-monitor battery."""

import math

import pytest

from repro.monitoring import (
    EDGE_ROUND,
    EVAL,
    Alert,
    DivergenceMonitor,
    FaultBudgetMonitor,
    MonitorAbort,
    PlateauMonitor,
    QuorumStarvationMonitor,
    RunEvent,
    StalenessRunawayMonitor,
    default_monitors,
)
from repro.monitoring import health
from repro.monitoring.health import (
    EXPLODE_FACTOR,
    FAULT_BUDGET,
    MAX_STALENESS,
    MIN_DELTA,
    PATIENCE,
    STALE_WINDOW,
    STARVATION_STREAK,
)

pytestmark = pytest.mark.monitoring


def eval_event(iteration, *, accuracy=0.5, test_loss=0.5, train_loss=0.5,
               fault_events=None):
    data = {
        "accuracy": accuracy,
        "test_loss": test_loss,
        "train_loss": train_loss,
    }
    if fault_events is not None:
        data["fault_events"] = fault_events
    return RunEvent(kind=EVAL, iteration=iteration, data=data)


def round_event(round_index, *, group=0, forced=False, staleness=(),
                members=4):
    return RunEvent(
        kind=EDGE_ROUND,
        iteration=round_index,
        tier="edge",
        data={
            "group": group,
            "forced": forced,
            "staleness": list(staleness),
            "members": members,
        },
    )


class TestAlertRecord:
    def test_dict_roundtrip(self):
        alert = Alert(monitor="plateau", severity="warning", message="m",
                      iteration=40, wall_time=1.5, data={"best": 0.9})
        assert Alert.from_dict(alert.to_dict()) == alert

    def test_abort_carries_alert(self):
        alert = Alert(monitor="divergence", severity="critical", message="x")
        abort = MonitorAbort(alert)
        assert abort.alert is alert
        assert "divergence" in str(abort)


class TestDivergence:
    def test_silent_on_healthy_run(self):
        monitor = DivergenceMonitor()
        for t in range(5):
            assert monitor.observe(eval_event(t, train_loss=0.5)) is None

    def test_nan_train_loss_is_no_measurement(self):
        # Iteration 0 and abort-path evals record NaN train loss by
        # convention — that is absence of data, not divergence.
        monitor = DivergenceMonitor()
        assert monitor.observe(eval_event(0, train_loss=math.nan)) is None

    def test_inf_train_loss_fires_critical(self):
        monitor = DivergenceMonitor()
        alert = monitor.observe(eval_event(3, train_loss=math.inf))
        assert alert is not None
        assert alert.severity == "critical"
        assert alert.iteration == 3

    def test_nan_test_loss_fires(self):
        monitor = DivergenceMonitor()
        alert = monitor.observe(eval_event(2, test_loss=math.nan))
        assert alert is not None

    def test_explosion_against_first_finite_reference(self):
        monitor = DivergenceMonitor()
        limit = EXPLODE_FACTOR * 0.5
        assert monitor.observe(eval_event(0, train_loss=math.nan)) is None
        assert monitor.observe(eval_event(1, train_loss=0.5)) is None
        assert monitor.observe(eval_event(2, train_loss=0.98 * limit)) is None
        alert = monitor.observe(eval_event(3, train_loss=1.02 * limit))
        assert alert is not None
        assert alert.data["reference"] == 0.5

    def test_fires_once(self):
        monitor = DivergenceMonitor()
        assert monitor.observe(eval_event(1, train_loss=math.inf)) is not None
        assert monitor.observe(eval_event(2, train_loss=math.inf)) is None


class TestPlateau:
    def test_fires_after_patience_stalls(self):
        monitor = PlateauMonitor()
        assert monitor.observe(eval_event(0, accuracy=0.5)) is None
        # A gain smaller than MIN_DELTA is a stall too.
        for t in range(1, PATIENCE):
            stalled = eval_event(t, accuracy=0.5 + MIN_DELTA / 2)
            assert monitor.observe(stalled) is None
        alert = monitor.observe(eval_event(PATIENCE, accuracy=0.5))
        assert alert is not None
        assert alert.data["stalled_evals"] == PATIENCE

    def test_rearms_on_improvement(self):
        monitor = PlateauMonitor()
        monitor.observe(eval_event(0, accuracy=0.5))
        for t in range(1, PATIENCE):
            assert monitor.observe(eval_event(t, accuracy=0.5)) is None
        assert monitor.observe(eval_event(PATIENCE, accuracy=0.5)) is not None
        # Improvement clears the episode; a fresh stall fires again.
        t = PATIENCE + 1
        assert monitor.observe(eval_event(t, accuracy=0.6)) is None
        for t in range(t + 1, t + PATIENCE):
            assert monitor.observe(eval_event(t, accuracy=0.6)) is None
        assert monitor.observe(eval_event(t + 1, accuracy=0.6)) is not None

    def test_one_alert_per_episode(self):
        monitor = PlateauMonitor()
        for t in range(PATIENCE + 1):
            monitor.observe(eval_event(t, accuracy=0.5))
        assert monitor.observe(eval_event(PATIENCE + 1, accuracy=0.5)) is None


class TestQuorumStarvation:
    def test_fires_on_consecutive_forced(self):
        monitor = QuorumStarvationMonitor()
        for r in range(STARVATION_STREAK - 1):
            assert monitor.observe(round_event(r, forced=True)) is None
        alert = monitor.observe(round_event(STARVATION_STREAK, forced=True))
        assert alert is not None
        assert alert.data["consecutive_forced"] == STARVATION_STREAK

    def test_clean_round_resets_streak(self):
        monitor = QuorumStarvationMonitor()
        for r in range(STARVATION_STREAK - 1):
            monitor.observe(round_event(r, forced=True))
        monitor.observe(round_event(STARVATION_STREAK, forced=False))
        for r in range(STARVATION_STREAK - 1):
            assert monitor.observe(round_event(r, forced=True)) is None

    def test_streaks_per_group(self):
        monitor = QuorumStarvationMonitor()
        for r in range(STARVATION_STREAK - 1):
            for group in (0, 1):
                forced = round_event(r, group=group, forced=True)
                assert monitor.observe(forced) is None
        last = round_event(STARVATION_STREAK, group=0, forced=True)
        assert monitor.observe(last) is not None


class TestStalenessRunaway:
    def test_fires_on_old_fold(self):
        monitor = StalenessRunawayMonitor()
        stale = round_event(0, staleness=[0, MAX_STALENESS])
        alert = monitor.observe(stale)
        assert alert is not None
        assert alert.data["staleness"] == MAX_STALENESS

    def test_fresh_rounds_silent(self):
        monitor = StalenessRunawayMonitor()
        for r in range(STALE_WINDOW + 1):
            assert monitor.observe(round_event(r, staleness=[1])) is None

    def test_fraction_over_window(self):
        monitor = StalenessRunawayMonitor()
        # 3 of 4 members fold stale each round, but none is old enough
        # to fire alone: the alert waits for a full window.
        for r in range(STALE_WINDOW - 1):
            assert monitor.observe(
                round_event(r, staleness=[1, 1, 1], members=4)
            ) is None
        alert = monitor.observe(
            round_event(STALE_WINDOW, staleness=[1, 1, 1], members=4)
        )
        assert alert is not None
        assert alert.data["stale"] == 3 * STALE_WINDOW

    def test_one_round_window_fires(self, monkeypatch):
        monkeypatch.setattr(health, "STALE_WINDOW", 1)
        monitor = StalenessRunawayMonitor()
        assert monitor.observe(
            round_event(0, staleness=[1, 1, 1], members=4)
        ) is not None

    def test_rearms_after_stale_free_round(self):
        monitor = StalenessRunawayMonitor()
        old = [MAX_STALENESS]
        assert monitor.observe(round_event(0, staleness=old)) is not None
        assert monitor.observe(round_event(1, staleness=old)) is None
        monitor.observe(round_event(2, staleness=[]))
        assert monitor.observe(round_event(3, staleness=old)) is not None


class TestFaultBudget:
    def test_fires_past_budget_once(self):
        monitor = FaultBudgetMonitor()
        budget = FAULT_BUDGET
        assert monitor.observe(eval_event(0, fault_events=budget)) is None
        alert = monitor.observe(eval_event(1, fault_events=budget + 1))
        assert alert is not None
        assert alert.data["budget"] == budget
        assert monitor.observe(eval_event(2, fault_events=budget + 2)) is None

    def test_silent_without_fault_counts(self):
        monitor = FaultBudgetMonitor()
        assert monitor.observe(eval_event(0)) is None


class TestThresholdsAreModuleConstants:
    """Each monitor decides on its module constant as it stands when the
    event arrives, so patching the constant moves the decision."""

    def test_explode_factor(self, monkeypatch):
        monkeypatch.setattr(health, "EXPLODE_FACTOR", 10.0)
        monitor = DivergenceMonitor()
        assert monitor.observe(eval_event(1, train_loss=0.5)) is None
        assert monitor.observe(eval_event(2, train_loss=4.9)) is None
        alert = monitor.observe(eval_event(3, train_loss=5.1))
        assert alert is not None and "10x" in alert.message

    def test_patience(self, monkeypatch):
        monkeypatch.setattr(health, "PATIENCE", 2)
        monitor = PlateauMonitor()
        assert monitor.observe(eval_event(0, accuracy=0.5)) is None
        assert monitor.observe(eval_event(1, accuracy=0.5)) is None
        alert = monitor.observe(eval_event(2, accuracy=0.5))
        assert alert is not None and alert.data["stalled_evals"] == 2

    def test_min_delta(self, monkeypatch):
        monkeypatch.setattr(health, "MIN_DELTA", 0.1)
        monitor = PlateauMonitor()
        # Steady gains of 0.05 improve at the default MIN_DELTA but are
        # stalls at 0.1.
        alerts = [
            monitor.observe(eval_event(t, accuracy=0.3 + 0.05 * t))
            for t in range(PATIENCE + 1)
        ]
        assert alerts[:PATIENCE] == [None] * PATIENCE
        assert alerts[PATIENCE] is not None

    def test_starvation_streak(self, monkeypatch):
        monkeypatch.setattr(health, "STARVATION_STREAK", 1)
        monitor = QuorumStarvationMonitor()
        alert = monitor.observe(round_event(0, forced=True))
        assert alert is not None
        assert alert.data["consecutive_forced"] == 1

    def test_max_staleness(self, monkeypatch):
        monkeypatch.setattr(health, "MAX_STALENESS", 1)
        monitor = StalenessRunawayMonitor()
        alert = monitor.observe(round_event(0, staleness=[1]))
        assert alert is not None and alert.data["staleness"] == 1

    def test_max_stale_fraction(self, monkeypatch):
        monkeypatch.setattr(health, "MAX_STALE_FRACTION", 0.2)
        monitor = StalenessRunawayMonitor()
        # One of four members stale each round: 0.25 of the window.
        alerts = [
            monitor.observe(round_event(r, staleness=[1], members=4))
            for r in range(STALE_WINDOW)
        ]
        assert alerts[:-1] == [None] * (STALE_WINDOW - 1)
        assert alerts[-1] is not None
        assert alerts[-1].data["members"] == 4 * STALE_WINDOW

    def test_fault_budget(self, monkeypatch):
        monkeypatch.setattr(health, "FAULT_BUDGET", 10)
        monitor = FaultBudgetMonitor()
        assert monitor.observe(eval_event(0, fault_events=10)) is None
        alert = monitor.observe(eval_event(1, fault_events=11))
        assert alert is not None and alert.data["budget"] == 10


class TestDefaults:
    def test_battery_composition(self):
        names = [m.name for m in default_monitors()]
        assert names == [
            "divergence", "plateau", "quorum_starvation",
            "staleness_runaway", "fault_budget",
        ]

    def test_abort_only_on_divergence(self):
        monitors = default_monitors(abort=True)
        by_name = {m.name: m for m in monitors}
        assert by_name["divergence"].abort is True
        assert all(
            not m.abort for name, m in by_name.items() if name != "divergence"
        )
