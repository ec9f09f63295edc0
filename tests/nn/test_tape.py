"""Finite-difference checks of the tape oracle's primitives.

Each primitive's vector-Jacobian product is checked once: for random
inputs ``x``, a random direction ``d`` and a random output cotangent
``g``, ``<vjp(g), d>`` must equal the central difference of
``<f(x), g>`` along ``d``.  The layer tests then trust compositions of
these primitives as their gradient oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.nn import tape as T

RNG = np.random.default_rng(2024)


def _cases():
    """(name, function of input nodes, input shapes)."""
    return [
        ("add_broadcast", lambda a, b: T.add(a, b), [(3, 4), (1, 4)]),
        ("mul_broadcast", lambda a, b: T.mul(a, b), [(2, 3, 4), (3, 1)]),
        ("einsum_dense", lambda a, b: T.einsum("ni,oi->no", a, b), [(5, 4), (3, 4)]),
        (
            "einsum_conv",
            lambda a, b: T.einsum("nchwkl,fckl->nfhw", a, b),
            [(2, 3, 4, 4, 2, 2), (5, 3, 2, 2)],
        ),
        ("sum", lambda a: T.sum_(a, (0, 2)), [(3, 4, 5)]),
        ("sum_keepdims", lambda a: T.sum_(a, (1,), keepdims=True), [(3, 4)]),
        ("maximum", lambda a: T.maximum(a, 0.0), [(4, 5)]),
        ("amax", lambda a: T.amax(a, (2, 3)), [(2, 3, 2, 2)]),
        ("windows_stride1", lambda a: T.windows(a, 3, 1), [(2, 2, 5, 5)]),
        ("windows_stride2", lambda a: T.windows(a, 2, 2), [(1, 3, 6, 4)]),
        ("pad", lambda a: T.pad(a, 2), [(2, 1, 3, 3)]),
        ("reshape", lambda a: T.reshape(a, (4, -1)), [(2, 2, 3)]),
        ("log_softmax", lambda a: T.log_softmax(a), [(4, 6)]),
        ("power", lambda a: T.power(a, -0.5), [(3, 4)]),
    ]


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_primitive_vjp_matches_central_differences(case):
    _, fn, shapes = case
    # Positive inputs keep power() real; maximum/amax stay off ties.
    xs = [RNG.uniform(0.5, 2.0, size=shape) for shape in shapes]
    if case[0] == "maximum":
        xs = [RNG.normal(size=shapes[0]) + 0.01]
    directions = [RNG.normal(size=shape) for shape in shapes]

    tape = T.Tape()
    leaves = [tape.leaf(x) for x in xs]
    out = fn(*leaves)
    cotangent = RNG.normal(size=out.shape)
    scalar = T.sum_(T.mul(out, cotangent), tuple(range(out.value.ndim)))
    grads = tape.grad(scalar, leaves)
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grads, directions))

    def objective(step):
        inner = T.Tape()
        moved = [inner.leaf(x + step * d) for x, d in zip(xs, directions)]
        return float(np.sum(fn(*moved).value * cotangent))

    eps = 1e-6
    numeric = (objective(eps) - objective(-eps)) / (2 * eps)
    assert analytic == pytest.approx(numeric, rel=1e-6, abs=1e-8)


def test_gradient_accumulates_over_fan_out():
    """A node used twice gets the sum of both uses' cotangents."""
    tape = T.Tape()
    x = tape.leaf(np.array([3.0]))
    y = T.sum_(T.add(T.mul(x, x), x), (0,))  # x² + x
    (grad,) = tape.grad(y, [x])
    assert grad[0] == pytest.approx(7.0)


def test_unused_leaf_gets_zero_gradient():
    tape = T.Tape()
    x, unused = tape.leaf(np.ones(2)), tape.leaf(np.ones(3))
    y = T.sum_(x, (0,))
    assert not tape.grad(y, [unused])[0].any()


def test_conv_layer_matches_direct_definition():
    """The tape's conv value is the textbook double sum over taps."""
    x = RNG.normal(size=(2, 3, 5, 5))
    w = RNG.normal(size=(4, 3, 3, 3))
    tape = T.Tape()
    got = T.conv2d(tape.leaf(x), tape.leaf(w), None, stride=2, padding=1).value
    padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    want = np.zeros((2, 4, 3, 3))
    for i in range(3):
        for j in range(3):
            window = padded[:, :, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3]
            want[:, :, i, j] = np.einsum("nckl,fckl->nf", window, w)
    np.testing.assert_allclose(got, want, rtol=1e-12)
