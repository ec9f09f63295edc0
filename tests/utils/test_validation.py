"""Tests for argument validators."""

import pytest

from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1, 0.5, 1e-9, 1000])
    def test_accepts(self, value):
        assert check_positive(value, "x") == float(value)

    @pytest.mark.parametrize("value", [0, -1, -0.5, "a", None])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive(value, "x")


class TestCheckPositiveInt:
    @pytest.mark.parametrize("value", [1, 2, 10**6])
    def test_accepts(self, value):
        assert check_positive_int(value, "n") == value

    @pytest.mark.parametrize("value", [0, -1, 1.5, "3", None])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="n"):
            check_positive_int(value, "n")

    def test_bool_is_valid_integral(self):
        # Python bools are Integral; True == 1 is accepted by design.
        assert check_positive_int(True, "n") == 1


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0, 0.5, 1])
    def test_accepts(self, value):
        assert check_probability(value, "p") == float(value)

    @pytest.mark.parametrize("value", [-0.1, 1.1, "p"])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="p"):
            check_probability(value, "p")


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0, 0.5, 0.99])
    def test_accepts(self, value):
        assert check_fraction(value, "gamma") == float(value)

    @pytest.mark.parametrize("value", [1.0, 1.5, -0.1])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="gamma"):
            check_fraction(value, "gamma")
