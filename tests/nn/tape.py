"""A small reverse-mode tape over NumPy: the layers' gradient oracle.

Every primitive records its output value and, for each input, the map
from the output's cotangent to that input's (its vector-Jacobian
product).  :meth:`Tape.grad` walks the records backwards and adds up
the cotangents.  ``test_tape.py`` checks each primitive's map once
against central differences.

The layer functions at the bottom are forward-only compositions of the
primitives, written from the textbook definitions: a convolution is
padding, sliding windows and one einsum; batch norm is its mean and
variance formula; a residual block adds its shortcut.  No composite
adjoint is written by hand, and nothing here imports the library's
``repro.nn``, so the oracle shares no code with what it checks.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Node:
    """One recorded value and the edges to the nodes it was made from."""

    __slots__ = ("value", "parents", "index", "tape")

    def __init__(self, tape, value, parents):
        self.tape = tape
        self.value = value
        self.parents = parents  # ((Node, vjp), ...)
        self.index = len(tape.nodes)
        tape.nodes.append(self)

    @property
    def shape(self) -> tuple:
        return self.value.shape


class Tape:
    """The record of one forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []

    def leaf(self, value) -> Node:
        return Node(self, np.array(value, dtype=np.float64), ())

    def grad(self, output: Node, wrt: list[Node]) -> list[np.ndarray]:
        """d(output)/d(each of ``wrt``); ``output`` must be a scalar."""
        cotangents = {output.index: np.ones_like(output.value)}
        for node in reversed(self.nodes[: output.index + 1]):
            g = cotangents.get(node.index)
            if g is None:
                continue
            for parent, vjp in node.parents:
                share = vjp(g)
                if parent.index in cotangents:
                    cotangents[parent.index] = cotangents[parent.index] + share
                else:
                    cotangents[parent.index] = share
        return [
            cotangents.get(node.index, np.zeros_like(node.value))
            for node in wrt
        ]


def _record(value, *edges) -> Node:
    """A node from ``(input, vjp)`` edges; constant inputs carry none."""
    edges = tuple((node, vjp) for node, vjp in edges if isinstance(node, Node))
    tape = edges[0][0].tape
    return Node(tape, value, edges)


def _value(a):
    return a.value if isinstance(a, Node) else np.asarray(a, dtype=np.float64)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (the adjoint of broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
def add(a, b) -> Node:
    av, bv = _value(a), _value(b)
    return _record(
        av + bv,
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    )


def mul(a, b) -> Node:
    av, bv = _value(a), _value(b)
    return _record(
        av * bv,
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    )


def einsum(spec: str, a, b) -> Node:
    """Two-operand einsum; each operand's indices appear in the other
    operand or the output, so its adjoint is another einsum."""
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    av, bv = _value(a), _value(b)
    return _record(
        np.einsum(spec, av, bv),
        (a, lambda g: np.einsum(f"{out},{sb}->{sa}", g, bv)),
        (b, lambda g: np.einsum(f"{out},{sa}->{sb}", g, av)),
    )


def sum_(a: Node, axes: tuple, keepdims: bool = False) -> Node:
    value = a.value.sum(axis=axes, keepdims=keepdims)

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _record(value, (a, vjp))


def mean(a: Node, axes: tuple, keepdims: bool = False) -> Node:
    count = int(np.prod([a.shape[axis] for axis in axes]))
    return mul(sum_(a, axes, keepdims), 1.0 / count)


def maximum(a: Node, floor: float) -> Node:
    """``max(a, floor)``; the derivative is 0 where ``a <= floor``."""
    above = a.value > floor
    return _record(np.maximum(a.value, floor), (a, lambda g: g * above))


def amax(a: Node, axes: tuple) -> Node:
    """Max over trailing ``axes``; the gradient goes to the first
    maximal element in row-major order."""
    lead = a.shape[: a.value.ndim - len(axes)]
    flat = a.value.reshape(lead + (-1,))
    winner = flat.argmax(axis=-1)[..., None]

    def vjp(g):
        out = np.zeros_like(flat)
        np.put_along_axis(out, winner, g[..., None], axis=-1)
        return out.reshape(a.shape)

    return _record(np.take_along_axis(flat, winner, axis=-1)[..., 0], (a, vjp))


def windows(a: Node, kernel: int, stride: int) -> Node:
    """``(N, C, H, W)`` -> ``(N, C, OH, OW, K, K)`` sliding windows."""
    view = sliding_window_view(a.value, (kernel, kernel), axis=(2, 3))
    value = view[:, :, ::stride, ::stride].copy()
    out_h, out_w = value.shape[2:4]

    def vjp(g):
        out = np.zeros_like(a.value)
        for i in range(kernel):
            for j in range(kernel):
                out[
                    :, :,
                    i : i + stride * out_h : stride,
                    j : j + stride * out_w : stride,
                ] += g[:, :, :, :, i, j]
        return out

    return _record(value, (a, vjp))


def pad(a: Node, padding: int) -> Node:
    """Zero-pad the last two axes by ``padding`` on each side."""
    if padding == 0:
        return a
    p = padding
    value = np.pad(a.value, ((0, 0), (0, 0), (p, p), (p, p)))
    return _record(value, (a, lambda g: g[:, :, p:-p, p:-p]))


def reshape(a: Node, shape: tuple) -> Node:
    return _record(a.value.reshape(shape), (a, lambda g: g.reshape(a.shape)))


def log_softmax(a: Node) -> Node:
    """Log-softmax over the last axis."""
    shifted = a.value - a.value.max(axis=-1, keepdims=True)
    value = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    probs = np.exp(value)
    return _record(
        value, (a, lambda g: g - probs * g.sum(axis=-1, keepdims=True))
    )


def power(a: Node, exponent: float) -> Node:
    return _record(
        a.value**exponent,
        (a, lambda g: g * exponent * a.value ** (exponent - 1)),
    )


# ----------------------------------------------------------------------
# Layers, forward only, from their definitions
# ----------------------------------------------------------------------
def dense(x: Node, weight: Node, bias: Node | None) -> Node:
    """``x @ W.T + b`` for ``(N, in)`` inputs and ``(out, in)`` weights."""
    y = einsum("ni,oi->no", x, weight)
    return y if bias is None else add(y, bias)


def conv2d(x, weight, bias, stride: int, padding: int) -> Node:
    """Cross-correlation of ``(N, C, H, W)`` inputs with ``(F, C, K, K)``
    weights: every output pixel is a window of the padded input
    contracted with the kernel."""
    kernel = weight.shape[-1]
    patches = windows(pad(x, padding), kernel, stride)
    y = einsum("nchwkl,fckl->nfhw", patches, weight)
    if bias is None:
        return y
    return add(y, reshape(bias, (1, -1, 1, 1)))


def batch_norm(x: Node, gamma: Node, beta: Node, eps: float):
    """Training-mode batch norm over every axis but the channel axis 1.

    Returns ``(y, mean, biased variance)``; the statistics are per
    channel.
    """
    axes = tuple(axis for axis in range(x.value.ndim) if axis != 1)
    mu = mean(x, axes, keepdims=True)
    centered = add(x, mul(mu, -1.0))
    var = mean(mul(centered, centered), axes, keepdims=True)
    inv_std = power(add(var, eps), -0.5)
    shape = tuple(-1 if axis == 1 else 1 for axis in range(x.value.ndim))
    y = add(
        mul(mul(centered, inv_std), reshape(gamma, shape)),
        reshape(beta, shape),
    )
    return y, mu.value.ravel(), var.value.ravel()


def relu(x: Node) -> Node:
    return maximum(x, 0.0)


def max_pool(x: Node, kernel: int, stride: int) -> Node:
    return amax(windows(x, kernel, stride), (4, 5))


def global_avg_pool(x: Node) -> Node:
    return mean(x, (2, 3))


def flatten(x: Node) -> Node:
    return reshape(x, (x.shape[0], -1))


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    return (np.asarray(labels)[:, None] == np.arange(classes)).astype(float)


def softmax_cross_entropy(logits: Node, labels: np.ndarray) -> Node:
    """Mean over the batch of ``-log softmax(logits)[label]``."""
    picked = sum_(mul(log_softmax(logits), one_hot(labels, logits.shape[1])), (1,))
    return mul(sum_(picked, (0,)), -1.0 / logits.shape[0])


def mse(predictions: Node, labels: np.ndarray) -> Node:
    """Mean squared error against one-hot targets."""
    diff = add(predictions, -one_hot(labels, predictions.shape[1]))
    return mean(mul(diff, diff), (0, 1))
