"""Tests for flat-vector parameter views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.utils.flatten import flatten_arrays, unflatten_like, zeros_like_flat


@st.composite
def array_lists(draw):
    """Random lists of small arrays with assorted shapes."""
    count = draw(st.integers(min_value=1, max_value=5))
    shapes = draw(
        st.lists(
            st.lists(
                st.integers(min_value=1, max_value=4), min_size=1, max_size=3
            ),
            min_size=count,
            max_size=count,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 1000)))
    return [rng.normal(size=tuple(shape)) for shape in shapes]


class TestFlatten:
    def test_single_array(self):
        flat = flatten_arrays([np.arange(6.0).reshape(2, 3)])
        assert np.array_equal(flat, np.arange(6.0))

    def test_concatenation_order(self):
        flat = flatten_arrays([np.array([1.0, 2.0]), np.array([[3.0]])])
        assert np.array_equal(flat, [1.0, 2.0, 3.0])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            flatten_arrays([])

    def test_output_is_float64(self):
        flat = flatten_arrays([np.array([1, 2], dtype=np.int32)])
        assert flat.dtype == np.float64

    @given(array_lists())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, arrays):
        flat = flatten_arrays(arrays)
        restored = unflatten_like(flat, arrays)
        assert len(restored) == len(arrays)
        for original, back in zip(arrays, restored):
            assert back.shape == original.shape
            assert np.allclose(back, original)


class TestUnflatten:
    def test_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="elements"):
            unflatten_like(np.zeros(3), [np.zeros((2, 2))])

    def test_shapes_restored(self):
        like = [np.zeros((2, 3)), np.zeros(4)]
        parts = unflatten_like(np.arange(10.0), like)
        assert parts[0].shape == (2, 3)
        assert parts[1].shape == (4,)
        assert np.array_equal(parts[1], [6, 7, 8, 9])


class TestZerosLike:
    def test_total_size(self):
        flat = zeros_like_flat([np.ones((3, 2)), np.ones(5)])
        assert flat.shape == (11,)
        assert not flat.any()
