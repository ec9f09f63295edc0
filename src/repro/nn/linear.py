"""Fully-connected (dense) layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_mod
from repro.nn.module import Module, Parameter
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["Dense"]


class Dense(Module):
    """Affine map ``y = x @ W.T + b`` with weight shape (out, in).

    Row ``r`` of an ``(R, B, in)`` input meets row ``r``'s weights: the
    forward is one stacked ``(R, B, in) @ (R, in, out)`` matmul over
    zero-copy ``(R, out, in)`` views of the bound parameter rows.
    ``needs_input_grad`` is cleared on a program's first layer, whose
    input is data, so its backward skips the input-gradient GEMM.
    """

    needs_input_grad = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
        weight_init=init_mod.kaiming_uniform,
    ):
        super().__init__()
        self.in_features = check_positive_int(in_features, "in_features")
        self.out_features = check_positive_int(out_features, "out_features")
        rng = make_rng(rng)
        self.weight = Parameter(
            weight_init((out_features, in_features), rng), "weight"
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(init_mod.zeros((out_features,)), "bias")
        self._reset()

    def _reset(self) -> None:
        self._w: np.ndarray | None = None
        self._b: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        return self.in_features * self.out_features, (self.out_features,)

    def bind(self, params: np.ndarray, grads: np.ndarray | None) -> None:
        size = self.weight.size
        # The column block of a row-contiguous matrix splits into
        # (R, out, in) weight views without a copy.
        self._w = params[:, :size].reshape(
            params.shape[0], self.out_features, self.in_features
        )
        self._b = params[:, size:] if self.use_bias else None
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"Dense expects (R, B, {self.in_features}) input, "
                f"got {x.shape}"
            )
        self._x = x
        out = np.matmul(x, self._w.transpose(0, 2, 1))
        if self._b is not None:
            out += self._b[:, None, :]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        x = self._x
        if x is None:
            raise RuntimeError("backward called before forward")
        rows, size = grad_output.shape[0], self.weight.size
        grad_w = np.matmul(grad_output.transpose(0, 2, 1), x)
        self._grads[:, :size] = grad_w.reshape(rows, size)
        if self.use_bias:
            self._grads[:, size:] = grad_output.sum(axis=1)
        self._x = None
        if not self.needs_input_grad:
            return None
        return np.matmul(grad_output, self._w)
