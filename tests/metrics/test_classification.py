"""Tests for classification metrics."""

import numpy as np
import pytest

from repro.metrics.classification import (
    confusion_matrix,
    macro_f1,
    per_class_accuracy,
)


class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self):
        y = np.array([0, 1, 2, 1])
        matrix = confusion_matrix(y, y, 3)
        assert np.array_equal(matrix, np.diag([1, 2, 1]))

    def test_known_counts(self):
        matrix = confusion_matrix(
            np.array([0, 0, 1]), np.array([0, 1, 1]), 2
        )
        assert np.array_equal(matrix, [[1, 1], [0, 1]])

    def test_total_preserved(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 5, 100)
        y_pred = rng.integers(0, 5, 100)
        assert confusion_matrix(y_true, y_pred, 5).sum() == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([5]), np.array([0]), 2)


class TestPerClassAccuracy:
    def test_values(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 1, 1, 1])
        acc = per_class_accuracy(y_true, y_pred, 3)
        assert acc[0] == 0.5
        assert acc[1] == 1.0
        assert np.isnan(acc[2])  # class 2 absent


class TestMacroF1:
    def test_perfect(self):
        y = np.array([0, 1, 2])
        assert macro_f1(y, y, 3) == 1.0

    def test_half(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.array([0, 0, 0, 0])
        value = macro_f1(y_true, y_pred, 2)
        # class 0: p=0.5, r=1.0 -> f1=2/3; class 1: f1=0.
        assert value == pytest.approx((2 / 3) / 2)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            macro_f1(np.array([], dtype=int), np.array([], dtype=int), 2)
