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
        monitor = DivergenceMonitor(explode_factor=10.0)
        assert monitor.observe(eval_event(0, train_loss=math.nan)) is None
        assert monitor.observe(eval_event(1, train_loss=0.5)) is None
        assert monitor.observe(eval_event(2, train_loss=4.9)) is None
        alert = monitor.observe(eval_event(3, train_loss=5.1))
        assert alert is not None
        assert alert.data["reference"] == 0.5

    def test_fires_once(self):
        monitor = DivergenceMonitor()
        assert monitor.observe(eval_event(1, train_loss=math.inf)) is not None
        assert monitor.observe(eval_event(2, train_loss=math.inf)) is None

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            DivergenceMonitor(explode_factor=1.0)


class TestPlateau:
    def test_fires_after_patience_stalls(self):
        monitor = PlateauMonitor(patience=3, min_delta=0.01)
        assert monitor.observe(eval_event(0, accuracy=0.5)) is None
        for t in (1, 2):
            assert monitor.observe(eval_event(t, accuracy=0.5)) is None
        alert = monitor.observe(eval_event(3, accuracy=0.5))
        assert alert is not None
        assert alert.data["stalled_evals"] == 3

    def test_rearms_on_improvement(self):
        monitor = PlateauMonitor(patience=2, min_delta=0.01)
        monitor.observe(eval_event(0, accuracy=0.5))
        monitor.observe(eval_event(1, accuracy=0.5))
        assert monitor.observe(eval_event(2, accuracy=0.5)) is not None
        # Improvement clears the episode; a fresh stall fires again.
        assert monitor.observe(eval_event(3, accuracy=0.6)) is None
        monitor.observe(eval_event(4, accuracy=0.6))
        assert monitor.observe(eval_event(5, accuracy=0.6)) is not None

    def test_one_alert_per_episode(self):
        monitor = PlateauMonitor(patience=2)
        for t in range(3):
            monitor.observe(eval_event(t, accuracy=0.5))
        assert monitor.observe(eval_event(3, accuracy=0.5)) is None


class TestQuorumStarvation:
    def test_fires_on_consecutive_forced(self):
        monitor = QuorumStarvationMonitor(threshold=2)
        assert monitor.observe(round_event(0, forced=True)) is None
        alert = monitor.observe(round_event(1, forced=True))
        assert alert is not None
        assert alert.data["consecutive_forced"] == 2

    def test_clean_round_resets_streak(self):
        monitor = QuorumStarvationMonitor(threshold=2)
        monitor.observe(round_event(0, forced=True))
        monitor.observe(round_event(1, forced=False))
        assert monitor.observe(round_event(2, forced=True)) is None

    def test_streaks_per_group(self):
        monitor = QuorumStarvationMonitor(threshold=2)
        assert monitor.observe(round_event(0, group=0, forced=True)) is None
        assert monitor.observe(round_event(1, group=1, forced=True)) is None
        assert monitor.observe(round_event(2, group=0, forced=True)) is not None


class TestStalenessRunaway:
    def test_fires_on_old_fold(self):
        monitor = StalenessRunawayMonitor(max_staleness=3)
        alert = monitor.observe(round_event(0, staleness=[0, 3]))
        assert alert is not None
        assert alert.data["staleness"] == 3

    def test_fresh_rounds_silent(self):
        monitor = StalenessRunawayMonitor(max_staleness=3)
        for r in range(6):
            assert monitor.observe(round_event(r, staleness=[1])) is None

    def test_fraction_over_window(self):
        monitor = StalenessRunawayMonitor(
            max_staleness=10, max_stale_fraction=0.5, window=2
        )
        assert monitor.observe(
            round_event(0, staleness=[1, 1, 1], members=4)
        ) is None
        alert = monitor.observe(
            round_event(1, staleness=[1, 1, 1], members=4)
        )
        assert alert is not None
        assert alert.data["stale"] == 6

    def test_one_round_window_fires(self):
        monitor = StalenessRunawayMonitor(
            max_staleness=10, max_stale_fraction=0.5, window=1
        )
        assert monitor.observe(
            round_event(0, staleness=[1, 1, 1], members=4)
        ) is not None

    @pytest.mark.parametrize("window", [0, -1])
    def test_empty_window_refused(self, window):
        # deque(maxlen=0) keeps no round, so the fraction alert could
        # never fire.
        with pytest.raises(ValueError, match="window must be >= 1"):
            StalenessRunawayMonitor(window=window)

    def test_rearms_after_stale_free_round(self):
        monitor = StalenessRunawayMonitor(max_staleness=2)
        assert monitor.observe(round_event(0, staleness=[2])) is not None
        assert monitor.observe(round_event(1, staleness=[2])) is None
        monitor.observe(round_event(2, staleness=[]))
        assert monitor.observe(round_event(3, staleness=[2])) is not None


class TestFaultBudget:
    def test_fires_past_budget_once(self):
        monitor = FaultBudgetMonitor(budget=10)
        assert monitor.observe(eval_event(0, fault_events=10)) is None
        alert = monitor.observe(eval_event(1, fault_events=11))
        assert alert is not None
        assert alert.data["budget"] == 10
        assert monitor.observe(eval_event(2, fault_events=12)) is None

    def test_silent_without_fault_counts(self):
        monitor = FaultBudgetMonitor(budget=1)
        assert monitor.observe(eval_event(0)) is None


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
