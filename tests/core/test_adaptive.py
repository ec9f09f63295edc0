"""Tests for the adaptive edge-momentum factor (eqs. 6–7)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import (
    GAMMA_CAP,
    AdaptiveGammaController,
    adapt_gamma,
    cosine_agreement,
)
from tests.core.gamma_oracle import accumulate


def step(controller, worker, grad, y_prev, velocity):
    """One local iteration of ``worker``, as the event clock records it."""
    rows = slice(worker, worker + 1)
    controller.accumulate_step(rows, grad[None], y_prev[None], velocity[None])


class TestAdaptGamma:
    def test_negative_cosine_zeroed(self):
        assert adapt_gamma(-0.5) == 0.0
        assert adapt_gamma(-1.0) == 0.0
        assert adapt_gamma(0.0) == 0.0

    def test_midrange_passthrough(self):
        assert adapt_gamma(0.42) == 0.42

    def test_cap(self):
        assert adapt_gamma(0.995) == GAMMA_CAP
        assert adapt_gamma(1.0) == GAMMA_CAP
        assert adapt_gamma(GAMMA_CAP) == GAMMA_CAP

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            adapt_gamma(1.5)
        with pytest.raises(ValueError):
            adapt_gamma(-1.01)

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_output_always_valid(self, cosine):
        gamma = adapt_gamma(cosine)
        assert 0.0 <= gamma <= GAMMA_CAP

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_monotone(self, a, b):
        if a <= b:
            assert adapt_gamma(a) <= adapt_gamma(b)


class TestCosineAgreement:
    def test_perfect_agreement(self):
        grad = [np.array([1.0, 0.0])]
        momentum = [np.array([-2.0, 0.0])]  # -grad direction
        assert cosine_agreement(grad, momentum, np.array([1.0])) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        grad = [np.array([1.0, 0.0])]
        momentum = [np.array([3.0, 0.0])]
        assert cosine_agreement(grad, momentum, np.array([1.0])) == pytest.approx(-1.0)

    def test_orthogonal_is_zero(self):
        grad = [np.array([1.0, 0.0])]
        momentum = [np.array([0.0, 1.0])]
        assert cosine_agreement(grad, momentum, np.array([1.0])) == pytest.approx(0.0)

    def test_weighted_average(self):
        grads = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        momenta = [np.array([-1.0, 0.0]), np.array([1.0, 0.0])]
        value = cosine_agreement(grads, momenta, np.array([0.75, 0.25]))
        assert value == pytest.approx(0.75 - 0.25)

    def test_zero_vectors_contribute_zero(self):
        grads = [np.zeros(2), np.array([1.0, 0.0])]
        momenta = [np.array([1.0, 0.0]), np.array([-1.0, 0.0])]
        value = cosine_agreement(grads, momenta, np.array([0.5, 0.5]))
        assert value == pytest.approx(0.5)

    def test_zero_accumulator_weight_dropped_not_renormalized(self):
        """A zero-accumulator worker's weight is excluded, not respread.

        Three workers at perfect agreement would give cosine 1.0; zeroing
        one worker's accumulators must drop its 0.4 weight from the sum
        (result 0.6), NOT renormalize the remaining weights back to 1.0.
        """
        grads = [np.array([1.0, 0.0])] * 2 + [np.zeros(2)]
        momenta = [np.array([-1.0, 0.0])] * 2 + [np.array([5.0, 5.0])]
        weights = np.array([0.25, 0.35, 0.4])
        value = cosine_agreement(grads, momenta, weights)
        assert value == pytest.approx(0.6)
        assert value != pytest.approx(1.0)  # the renormalized answer

    def test_accepts_stacked_matrices(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0]])
        momenta = np.array([[-1.0, 0.0], [0.0, 1.0]])
        value = cosine_agreement(grads, momenta, np.array([0.5, 0.5]))
        assert value == pytest.approx(0.5 - 0.5)

    def test_scale_invariance(self):
        grad = [np.array([0.3, -0.7])]
        momentum = [np.array([-1.2, 2.8])]
        a = cosine_agreement(grad, momentum, np.array([1.0]))
        b = cosine_agreement(
            [grad[0] * 1e6], [momentum[0] * 1e-6], np.array([1.0])
        )
        assert a == pytest.approx(b)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cosine_agreement([np.zeros(2)], [], np.array([1.0]))

    @given(st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_result_in_range(self, seed):
        rng = np.random.default_rng(seed)
        grads = [rng.normal(size=5) for _ in range(3)]
        momenta = [rng.normal(size=5) for _ in range(3)]
        weights = rng.random(3)
        weights /= weights.sum()
        value = cosine_agreement(grads, momenta, weights)
        assert -1.0 <= value <= 1.0


class TestController:
    def test_velocity_mode_skips_boundary_step(self):
        controller = AdaptiveGammaController(1, 3, mode="velocity")
        step(controller, 0, np.ones(3), np.ones(3), np.ones(3))
        assert not controller.grad_sums[0].any()  # first step skipped
        step(controller, 0, np.ones(3), np.ones(3), np.ones(3))
        assert controller.grad_sums[0].sum() == 3.0
        assert controller.momentum_sums[0].sum() == 3.0

    def test_y_mode_accumulates_immediately(self):
        controller = AdaptiveGammaController(1, 3, mode="y")
        step(controller, 0, np.ones(3), 2 * np.ones(3), np.ones(3))
        assert controller.grad_sums[0].sum() == 3.0
        assert controller.momentum_sums[0].sum() == 6.0  # y_prev, not velocity

    def test_reset_restores_boundary_skip(self):
        controller = AdaptiveGammaController(2, 2, mode="velocity")
        for _ in range(3):
            step(controller, 0, np.ones(2), np.ones(2), np.ones(2))
        controller.reset_workers([0])
        assert not controller.grad_sums[0].any()
        step(controller, 0, np.ones(2), np.ones(2), np.ones(2))
        assert not controller.grad_sums[0].any()  # boundary skip again

    def test_reset_only_named_workers(self):
        controller = AdaptiveGammaController(2, 2, mode="y")
        step(controller, 0, np.ones(2), np.ones(2), np.ones(2))
        step(controller, 1, np.ones(2), np.ones(2), np.ones(2))
        controller.reset_workers([0])
        assert not controller.grad_sums[0].any()
        assert controller.grad_sums[1].any()

    def test_gamma_for_edge_agreeing_workers(self):
        controller = AdaptiveGammaController(2, 2, mode="y")
        for worker in range(2):
            step(
                controller, worker, np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                np.zeros(2),
            )
        gamma = controller.gamma_for_edge([0, 1], np.array([0.5, 0.5]))
        assert gamma == GAMMA_CAP

    def test_invalid_mode_raises(self):
        with pytest.raises(ValueError):
            AdaptiveGammaController(1, 2, mode="delta")

    @pytest.mark.parametrize("mode", ["velocity", "y"])
    def test_accumulate_step_matches_per_worker(self, mode):
        """The selector step is step-for-step equal to the loop.

        Alternates ``slice(None)`` with index-array and one-row slice
        selectors, and resets workers between steps so every kind of
        selector meets rows still on their boundary step (and rows that
        are not).
        """
        rng = np.random.default_rng(0)
        stacked = AdaptiveGammaController(4, 3, mode=mode)
        looped = AdaptiveGammaController(4, 3, mode=mode)
        schedule = [
            (slice(None), [1, 2]),  # every row on its first step
            (np.array([0, 2, 3]), []),  # 2 on its boundary step
            (slice(None), [0, 3]),  # 1 on its boundary step
            (np.array([0, 1]), []),  # 0 on its boundary step
            (np.array([3]), []),  # 3 on its boundary step
            (slice(None), []),  # nobody on a boundary step
            (slice(2, 3), [2]),  # one-row slice, as the event clock steps
            (slice(2, 3), []),  # one-row slice on its boundary step
        ]
        for rows, reset in schedule:
            chosen = np.arange(4)[rows]
            grads = rng.normal(size=(chosen.size, 3))
            y_prev = rng.normal(size=(chosen.size, 3))
            velocity = rng.normal(size=(chosen.size, 3))
            stacked.accumulate_step(rows, grads, y_prev, velocity)
            for position, worker in enumerate(chosen):
                accumulate(
                    looped, worker,
                    grads[position],
                    y_prev[position],
                    velocity[position],
                )
            stacked.reset_workers(reset)
            looped.reset_workers(reset)
            assert np.array_equal(stacked._boundary, looped._boundary)
        assert np.array_equal(stacked.grad_sums, looped.grad_sums)
        assert np.array_equal(stacked.momentum_sums, looped.momentum_sums)
        assert stacked.grad_sums.any()

    def test_gamma_for_edge_accepts_slice(self):
        controller = AdaptiveGammaController(3, 2, mode="y")
        for worker in range(3):
            step(
                controller, worker, np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
                np.zeros(2),
            )
        by_list = controller.gamma_for_edge([0, 1], np.array([0.5, 0.5]))
        by_slice = controller.gamma_for_edge(
            slice(0, 2), np.array([0.5, 0.5])
        )
        assert by_list == by_slice == GAMMA_CAP
