"""Tests for the three-tier topology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import Topology


class TestConstruction:
    def test_basic_shape(self):
        topo = Topology([[10, 20], [30]])
        assert topo.num_edges == 2
        assert topo.num_workers == 3
        assert topo.workers_in_edge(0) == 2
        assert topo.workers_in_edge(1) == 1

    def test_uniform_builder(self):
        topo = Topology.uniform(3, 4, 25)
        assert topo.num_edges == 3
        assert topo.num_workers == 12
        assert topo.total_samples == 300


    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Topology([])
        with pytest.raises(ValueError):
            Topology([[]])

    def test_zero_samples_raises(self):
        with pytest.raises(ValueError):
            Topology([[0, 5]])


class TestWeights:
    def test_worker_weights_sum_to_one(self):
        topo = Topology([[10, 30], [5, 5, 10]])
        for edge in range(topo.num_edges):
            assert topo.worker_weights(edge).sum() == pytest.approx(1.0)

    def test_worker_weights_proportional(self):
        topo = Topology([[10, 30]])
        assert np.allclose(topo.worker_weights(0), [0.25, 0.75])

    def test_edge_weights(self):
        topo = Topology([[10, 10], [20, 60]])
        assert np.allclose(topo.edge_weights(), [0.2, 0.8])

    def test_global_weights_consistent(self):
        topo = Topology([[10, 30], [40, 20]])
        flat = topo.global_worker_weights()
        assert flat.sum() == pytest.approx(1.0)
        # D_{i,l}/D equals (D_{i,l}/D_l) * (D_l/D).
        edge_w = topo.edge_weights()
        expected = np.concatenate(
            [topo.worker_weights(e) * edge_w[e] for e in range(2)]
        )
        assert np.allclose(flat, expected)


class TestIndexing:

    def test_edge_worker_indices(self):
        topo = Topology([[1, 1], [1, 1, 1]])
        assert topo.edge_worker_indices(0) == [0, 1]
        assert topo.edge_worker_indices(1) == [2, 3, 4]


    @given(
        st.lists(
            st.lists(st.integers(1, 50), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, counts):
        """The edges' worker blocks tile the flat index range in order."""
        topo = Topology(counts)
        flat = [
            index
            for edge in range(topo.num_edges)
            for index in topo.edge_worker_indices(edge)
        ]
        assert flat == list(range(topo.num_workers))
        assert topo.global_worker_weights().sum() == pytest.approx(1.0)
