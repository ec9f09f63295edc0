"""Tests for terminal plotting helpers."""

import pytest

from repro.metrics import TrainingHistory
from repro.metrics.ascii_plot import compare_curves, sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_extremes_use_extreme_blocks(self):
        line = sparkline([0.0, 1.0])
        assert line[0] == "▁"
        assert line[1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_custom_range(self):
        line = sparkline([0.5], low=0.0, high=1.0)
        assert line in "▃▄▅"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            sparkline([])

    def test_nan_entries_render_blank(self):
        """Histories carry NaN markers (train_loss[0]); render as gaps."""
        line = sparkline([float("nan"), 0.0, 1.0])
        assert line == " ▁█"

    def test_all_nan_renders_blank_line(self):
        assert sparkline([float("nan")] * 3) == "   "

    def test_nan_in_constant_series(self):
        assert sparkline([5.0, float("nan"), 5.0]) == "▁ ▁"


class TestCompareCurves:
    def histories(self):
        out = {}
        for name, curve in [("a", [0.1, 0.5, 0.9]), ("b", [0.1, 0.2, 0.3])]:
            h = TrainingHistory(name)
            for t, acc in enumerate(curve):
                h.record_eval(t, acc, 0.1, 0.1)
            out[name] = h
        return out

    def test_all_names_present(self):
        text = compare_curves(self.histories())
        assert "a" in text and "b" in text
        assert "0.900" in text and "0.300" in text

    def test_downsampling_long_curves(self):
        h = TrainingHistory("long")
        for t in range(200):
            h.record_eval(t, t / 200, 0.1, 0.1)
        text = compare_curves({"long": h}, width=20)
        line = text.split("\n")[0]
        # name + sparkline(<=20) + final value.
        assert len(line) < 40

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            compare_curves({})
