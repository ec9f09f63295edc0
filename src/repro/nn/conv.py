"""2-D convolution layer (im2col + GEMM)."""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_mod
from repro.nn.functional import col2im, conv_output_size, im2col
from repro.nn.module import Module, Parameter
from repro.utils.rng import make_rng
from repro.utils.validation import check_positive_int

__all__ = ["Conv2d"]

# Geometries whose im2col scratch a layer keeps: a training batch, a full
# evaluation chunk and the last, shorter chunk.
_SCRATCH_SHAPES = 4


class Conv2d(Module):
    """Cross-correlation over (R, B, C, H, W) inputs.

    Weight shape is ``(out_channels, in_channels, kernel, kernel)``.  The
    row and image axes fold into im2col's batch axis — one ``im2col``
    over ``(R*B, C, H, W)`` produces the R rows' patch matrices stacked
    block by block — and the GEMM against the rows' weight views runs as
    one stacked ``(R, B*OH*OW, CKK) @ (R, CKK, F)`` matmul.  The im2col
    scratch is cached per input geometry.  ``needs_input_grad``
    is cleared on a program's first layer (see :class:`Dense`).
    """

    needs_input_grad = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
        weight_init=init_mod.kaiming_normal,
    ):
        super().__init__()
        self.in_channels = check_positive_int(in_channels, "in_channels")
        self.out_channels = check_positive_int(out_channels, "out_channels")
        self.kernel_size = check_positive_int(kernel_size, "kernel_size")
        self.stride = check_positive_int(stride, "stride")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)

        rng = make_rng(rng)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(weight_init(shape, rng), "weight")
        self.use_bias = bias
        if bias:
            self.bias = Parameter(init_mod.zeros((out_channels,)), "bias")

        self._reset()

    def _reset(self) -> None:
        self._w: np.ndarray | None = None
        self._b: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple | None = None
        # im2col scratch per input geometry: training and evaluation
        # passes alternate, and re-allocating (and page-faulting) a
        # large buffer at every switch costs more than keeping both.
        self._scratch: dict[tuple, np.ndarray] = {}

    def macs(self, shape: tuple) -> tuple[int, tuple]:
        _, h, w = shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        return (
            out_h * out_w * self.in_channels * k * k * self.out_channels,
            (self.out_channels, out_h, out_w),
        )

    def bind(self, params: np.ndarray, grads: np.ndarray | None) -> None:
        size = self.weight.size
        self._w = params[:, :size].reshape(
            params.shape[0], self.out_channels, size // self.out_channels
        )
        self._b = params[:, size:] if self.use_bias else None
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5 or x.shape[2] != self.in_channels:
            raise ValueError(
                f"Conv2d expects (R, B, {self.in_channels}, H, W) input, "
                f"got {x.shape}"
            )
        rows, batch, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        patch = self.in_channels * k * k

        key = (rows * batch * out_h * out_w, x.dtype)
        scratch = self._scratch.get(key)
        if scratch is None:
            if len(self._scratch) >= _SCRATCH_SHAPES:
                self._scratch.clear()
            scratch = self._scratch[key] = np.empty((key[0], patch), x.dtype)
        cols = im2col(
            x.reshape(rows * batch, self.in_channels, h, w),
            k, k, s, p, out=scratch,
        ).reshape(rows, batch * out_h * out_w, patch)
        out = np.matmul(cols, self._w.transpose(0, 2, 1))
        if self._b is not None:
            out += self._b[:, None, :]

        self._cols = cols
        self._x_shape = x.shape
        return out.reshape(
            rows, batch, out_h, out_w, self.out_channels
        ).transpose(0, 1, 4, 2, 3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        rows, batch, _, out_h, out_w = grad_output.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        size = self.weight.size

        # (R, B, F, OH, OW) -> (R, B*OH*OW, F) matching the im2col rows.
        grad_mat = np.ascontiguousarray(
            grad_output.transpose(0, 1, 3, 4, 2)
        ).reshape(rows, batch * out_h * out_w, self.out_channels)
        grad_w = np.matmul(grad_mat.transpose(0, 2, 1), self._cols)
        self._grads[:, :size] = grad_w.reshape(rows, size)
        if self.use_bias:
            self._grads[:, size:] = grad_mat.sum(axis=1)

        r, b, c, h, w = self._x_shape
        self._cols = None
        self._x_shape = None
        if not self.needs_input_grad:
            return None
        grad_cols = np.matmul(grad_mat, self._w)
        grad_input = col2im(
            grad_cols.reshape(-1, size // self.out_channels),
            (r * b, c, h, w), k, k, s, p,
        )
        return grad_input.reshape(r, b, c, h, w)
