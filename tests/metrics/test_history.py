"""Tests for TrainingHistory."""

import pytest

from repro.metrics import TrainingHistory


@pytest.fixture()
def history():
    h = TrainingHistory(algorithm="test", config={"eta": 0.01})
    for t, acc in [(0, 0.1), (10, 0.5), (20, 0.9), (30, 0.95)]:
        h.record_eval(t, acc, test_loss=1.0 - acc, train_loss=1.0 - acc)
    return h


class TestRecording:
    def test_series_lengths(self, history):
        assert len(history.iterations) == 4
        assert len(history.test_accuracy) == 4
        assert len(history.test_loss) == 4

    def test_final_and_best(self, history):
        assert history.final_accuracy == 0.95
        assert history.best_accuracy == 0.95

    def test_best_differs_from_final(self):
        h = TrainingHistory("x")
        h.record_eval(0, 0.9, 0.1, 0.1)
        h.record_eval(1, 0.5, 0.5, 0.5)
        assert h.best_accuracy == 0.9
        assert h.final_accuracy == 0.5

    def test_empty_history_raises(self):
        with pytest.raises(ValueError):
            TrainingHistory("x").final_accuracy

    def test_gamma_trace(self, history):
        history.record_gammas({0: 0.5, 1: 0.25})
        assert history.gamma_trace == [{0: 0.5, 1: 0.25}]


class TestTimeToAccuracy:
    def test_reached(self, history):
        assert history.iterations_to_accuracy(0.9) == 20
        assert history.iterations_to_accuracy(0.05) == 0

    def test_never_reached(self, history):
        assert history.iterations_to_accuracy(0.99) is None

    def test_exact_boundary(self, history):
        assert history.iterations_to_accuracy(0.95) == 30


class TestTimeToAccuracyEdgeCases:
    def test_time_reached_and_never_reached(self, history):
        history.eval_times = [0.0, 1.5, 3.0, 4.5]
        assert history.time_to_accuracy(0.9) == 3.0
        assert history.time_to_accuracy(0.99) is None

    def test_time_requires_time_axis(self, history):
        # Lockstep runs leave eval_times empty: asking for wall-clock
        # time-to-accuracy must fail loudly, not silently return None.
        with pytest.raises(ValueError, match="no simulated time axis"):
            history.time_to_accuracy(0.5)

    def test_time_requires_aligned_axis(self, history):
        history.eval_times = [0.0, 1.0]  # shorter than iterations
        with pytest.raises(ValueError, match="no simulated time axis"):
            history.time_to_accuracy(0.5)

    def test_non_monotone_accuracy_first_crossing(self):
        h = TrainingHistory("x")
        for t, acc in [(0, 0.2), (10, 0.8), (20, 0.4), (30, 0.9)]:
            h.record_eval(t, acc, 1.0 - acc, 1.0 - acc)
        h.eval_times = [0.0, 2.0, 4.0, 6.0]
        # The first crossing wins even though accuracy later dips.
        assert h.iterations_to_accuracy(0.7) == 10
        assert h.time_to_accuracy(0.7) == 2.0
        # A target only the late rebound reaches reports the rebound.
        assert h.iterations_to_accuracy(0.85) == 30
        assert h.time_to_accuracy(0.85) == 6.0

    def test_empty_history(self):
        h = TrainingHistory("x")
        assert h.iterations_to_accuracy(0.1) is None
        # Empty eval_times aligns with empty iterations: no crossing.
        assert h.time_to_accuracy(0.1) is None

