"""Batched multi-worker gradient engine.

The federated inner loop (Alg. 1 lines 4–6) evaluates one small
forward/backward pass *per worker* per iteration.  With per-worker
state already stacked into ``(num_workers, dim)`` matrices, those W
sequential passes are W tiny GEMMs plus W rounds of Python-level
bookkeeping — the bookkeeping dominates.  This module lowers a
:class:`~repro.nn.supervised.SupervisedModel` into a **batched
program** whose tensors carry a leading worker axis:

* forward is one stacked matmul ``(W, B, in) @ (W, in, out)`` per dense
  layer — and one stacked ``im2col`` + GEMM per conv layer — with each
  worker's weight block sliced **zero-copy** out of the stacked
  parameter matrix (the columns of a C-contiguous ``(W, dim)`` matrix
  reshape into per-worker weight views without copying — the same trick
  :class:`~repro.nn.module.FlatParamBuffer` uses within one model);
* backward writes every worker's flat gradient into the matching row of
  the stacked ``(W, dim)`` gradient matrix in place and returns the
  per-worker batch losses as one ``(W,)`` vector.

Lowering is structural and now covers the whole Table II model zoo:
dense layers, elementwise activations, no-op dropout, ``Conv2d``
(workers folded into the im2col batch axis), ``MaxPool2d`` /
``AvgPool2d`` / ``GlobalAvgPool2d`` / ``Flatten`` (parameterless and
per-image, so the worker axis folds into the batch axis and the
per-worker layers run verbatim), train-mode ``BatchNorm1d/2d``
(per-worker-row batch statistics; running-stat updates folded onto the
shared layer buffers in worker order, exactly as the sequential loop
would), and ResNet basic blocks (a composite mirroring the residual
forward/backward).  Anything else returns ``None`` with a
machine-readable *reason* (``lower_supervised_model(..., explain=True)``)
— counted on the tracer and debug-logged once — and callers keep the
per-worker loop.  The batched math mirrors the per-worker
implementations operation for operation — same GEMM shapes per worker
slice, same reduction axes — so the two backends agree to
floating-point roundoff (asserted at rtol 1e-10 in the test suite and
at rtol 1e-8 over whole golden trajectories).

Divergence contract: rows whose batch loss is non-finite get an all-NaN
gradient row.  Non-finite *parameter* rows must be filtered out by the
caller before invoking the program (``Federation.gradient_all`` falls
back to the loop in that case) — batch-norm models would otherwise fold
NaN statistics into the shared running buffers that the loop's
per-worker short-circuit never touches.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.dropout import Dropout
from repro.nn.functional import col2im, conv_output_size, im2col, log_softmax, one_hot, softmax
from repro.nn.linear import Dense
from repro.nn.losses import MSELoss, SoftmaxCrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm1d, BatchNorm2d, _BatchNorm
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.reshape import Flatten
from repro.telemetry import get_tracer

__all__ = ["BatchedProgram", "lower_supervised_model"]

logger = logging.getLogger(__name__)

# (module-class-name, reason) pairs already debug-logged; lowering the
# same unsupported model shape again stays silent.
_logged_reasons: set[tuple[str, str]] = set()


# ----------------------------------------------------------------------
# Batched layers
# ----------------------------------------------------------------------
class _BatchedDense:
    """Dense layer over a leading worker axis.

    Holds only the layer's *offsets* into the flat parameter vector;
    :meth:`bind` resolves them against a concrete stacked ``(R, dim)``
    parameter/gradient matrix pair before each pass.
    """

    __slots__ = (
        "in_features",
        "out_features",
        "w_start",
        "w_stop",
        "b_start",
        "b_stop",
        "covered",
        "needs_input_grad",
        "_w",
        "_params",
        "_grads",
        "_x",
    )

    def __init__(self, layer: Dense, offsets: dict[int, int]):
        self.in_features = layer.in_features
        self.out_features = layer.out_features
        self.needs_input_grad = True
        self.w_start = offsets[id(layer.weight)]
        self.w_stop = self.w_start + layer.weight.size
        self.covered = layer.weight.size
        if layer.use_bias:
            self.b_start = offsets[id(layer.bias)]
            self.b_stop = self.b_start + layer.bias.size
            self.covered += layer.bias.size
        else:
            self.b_start = self.b_stop = None
        self._w = None
        self._params = None
        self._grads = None
        self._x = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        rows = params.shape[0]
        # Zero-copy per-worker weight views: the column block of a
        # row-contiguous matrix splits into (R, out, in) without a copy.
        self._w = params[:, self.w_start : self.w_stop].reshape(
            rows, self.out_features, self.in_features
        )
        self._params = params
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        # (R, B, in) @ (R, in, out): one stacked GEMM; each worker slice
        # is the exact ``x @ W.T`` the per-worker Dense computes.
        out = np.matmul(x, self._w.transpose(0, 2, 1))
        if self.b_start is not None:
            out += self._params[:, self.b_start : self.b_stop][:, None, :]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        rows = grad_output.shape[0]
        grad_w = np.matmul(grad_output.transpose(0, 2, 1), x)
        # Write each worker's flat weight gradient into its grad-matrix
        # row (strided assignment — the grad matrix is filled in place).
        self._grads[:, self.w_start : self.w_stop] = grad_w.reshape(rows, -1)
        if self.b_start is not None:
            self._grads[:, self.b_start : self.b_stop] = grad_output.sum(
                axis=1
            )
        self._x = None
        if not self.needs_input_grad:
            return None
        return np.matmul(grad_output, self._w)


class _BatchedConv2d:
    """Conv2d over a leading worker axis (batched im2col + stacked GEMM).

    The worker and image axes fold into im2col's batch axis — one
    ``im2col`` over ``(R*B, C, H, W)`` produces exactly the R per-worker
    patch matrices stacked row-block by row-block — and the GEMM against
    the per-worker weight views runs as one stacked
    ``(R, B*OH*OW, CKK) @ (R, CKK, F)`` matmul.  The im2col scratch is
    cached across same-shape forwards, mirroring the per-worker layer.
    """

    __slots__ = (
        "in_channels",
        "out_channels",
        "kernel_size",
        "stride",
        "padding",
        "w_start",
        "w_stop",
        "b_start",
        "b_stop",
        "covered",
        "needs_input_grad",
        "_w",
        "_params",
        "_grads",
        "_cols",
        "_x_shape",
        "_scratch",
    )

    def __init__(self, layer: Conv2d, offsets: dict[int, int]):
        self.in_channels = layer.in_channels
        self.out_channels = layer.out_channels
        self.needs_input_grad = True
        self.kernel_size = layer.kernel_size
        self.stride = layer.stride
        self.padding = layer.padding
        self.w_start = offsets[id(layer.weight)]
        self.w_stop = self.w_start + layer.weight.size
        self.covered = layer.weight.size
        if layer.use_bias:
            self.b_start = offsets[id(layer.bias)]
            self.b_stop = self.b_start + layer.bias.size
            self.covered += layer.bias.size
        else:
            self.b_start = self.b_stop = None
        self._w = None
        self._params = None
        self._grads = None
        self._cols = None
        self._x_shape = None
        self._scratch = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        rows = params.shape[0]
        patch = self.in_channels * self.kernel_size * self.kernel_size
        self._w = params[:, self.w_start : self.w_stop].reshape(
            rows, self.out_channels, patch
        )
        self._params = params
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows, batch, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h = conv_output_size(h, k, s, p)
        out_w = conv_output_size(w, k, s, p)
        patch = self.in_channels * k * k

        scratch_shape = (rows * batch * out_h * out_w, patch)
        if (
            self._scratch is None
            or self._scratch.shape != scratch_shape
            or self._scratch.dtype != x.dtype
        ):
            self._scratch = np.empty(scratch_shape, dtype=x.dtype)
        cols = im2col(
            x.reshape(rows * batch, self.in_channels, h, w),
            k, k, s, p, out=self._scratch,
        )
        # Worker r's per-worker patch matrix is exactly rows
        # [r*B*OH*OW, (r+1)*B*OH*OW) of the folded im2col output.
        cols3 = cols.reshape(rows, batch * out_h * out_w, patch)
        out = np.matmul(cols3, self._w.transpose(0, 2, 1))
        if self.b_start is not None:
            out += self._params[:, self.b_start : self.b_stop][:, None, :]

        self._cols = cols3
        self._x_shape = (rows, batch, self.in_channels, h, w)
        return out.reshape(
            rows, batch, out_h, out_w, self.out_channels
        ).transpose(0, 1, 4, 2, 3)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        rows, batch, _, out_h, out_w = grad_output.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        patch = self.in_channels * k * k

        # (R, B, F, OH, OW) -> (R, B*OH*OW, F) matching the im2col rows.
        grad_mat = np.ascontiguousarray(
            grad_output.transpose(0, 1, 3, 4, 2)
        ).reshape(rows, batch * out_h * out_w, self.out_channels)
        grad_w = np.matmul(grad_mat.transpose(0, 2, 1), self._cols)
        self._grads[:, self.w_start : self.w_stop] = grad_w.reshape(rows, -1)
        if self.b_start is not None:
            self._grads[:, self.b_start : self.b_stop] = grad_mat.sum(axis=1)

        r, b, c, h, w = self._x_shape
        self._cols = None
        self._x_shape = None
        if not self.needs_input_grad:
            return None
        grad_cols = np.matmul(grad_mat, self._w)
        grad_input = col2im(
            grad_cols.reshape(-1, patch), (r * b, c, h, w), k, k, s, p
        )
        return grad_input.reshape(r, b, c, h, w)


class _BatchedBatchNorm:
    """Batch norm over a leading worker axis.

    Default is *train-mode* semantics, matching the gradient oracle
    (``SupervisedModel.gradient`` always switches the module to training
    mode): statistics are computed per worker row over that worker's own
    batch, and the shared layer's running buffers receive the same
    sequential ``*= (1-m); += m*stat`` updates — in worker order — the
    per-worker loop applies, so the buffers the next *evaluation* reads
    agree between backends.  Setting :attr:`frozen` instead normalizes
    every row with the shared running statistics (inference-mode batch
    norm, the elementwise-affine adjoint) — used by the gradcheck
    battery and available to callers that freeze statistics.
    """

    __slots__ = (
        "layer",
        "num_features",
        "momentum",
        "eps",
        "g_start",
        "g_stop",
        "b_start",
        "b_stop",
        "covered",
        "frozen",
        "_axes",
        "_spatial",
        "_params",
        "_grads",
        "_cache",
    )

    def __init__(self, layer: _BatchNorm, offsets: dict[int, int]):
        self.layer = layer  # running-stat buffers live on the shared layer
        self.num_features = layer.num_features
        self.momentum = layer.momentum
        self.eps = layer.eps
        self.g_start = offsets[id(layer.gamma)]
        self.g_stop = self.g_start + layer.gamma.size
        self.b_start = offsets[id(layer.beta)]
        self.b_stop = self.b_start + layer.beta.size
        self.covered = layer.gamma.size + layer.beta.size
        self.frozen = False
        # (R, B, C) reduces over the batch axis; (R, B, C, H, W) over
        # batch and space — the per-worker axes shifted by the R axis.
        self._spatial = isinstance(layer, BatchNorm2d)
        self._axes = (1, 3, 4) if self._spatial else (1,)
        self._params = None
        self._grads = None
        self._cache = None

    def _bshape(self, rows: int) -> tuple:
        if self._spatial:
            return (rows, 1, self.num_features, 1, 1)
        return (rows, 1, self.num_features)

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        self._params = params
        self._grads = grads

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows = x.shape[0]
        shape = self._bshape(rows)
        if self.frozen:
            inv_std = 1.0 / np.sqrt(self.layer.running_var + self.eps)
            inv_std_b = np.broadcast_to(
                inv_std.reshape(shape[1:]), shape
            )
            x_hat = (
                x - self.layer.running_mean.reshape(shape[1:])
            ) * inv_std_b
        else:
            mean = x.mean(axis=self._axes)  # (R, C)
            var = x.var(axis=self._axes)
            count = x[0].size // self.num_features
            unbiased = var * count / max(count - 1, 1)
            momentum = self.momentum
            running_mean = self.layer.running_mean
            running_var = self.layer.running_var
            # Same update sequence the per-worker layer applies, folded
            # in worker order onto the shared buffers.
            for row in range(rows):
                running_mean *= 1.0 - momentum
                running_mean += momentum * mean[row]
                running_var *= 1.0 - momentum
                running_var += momentum * unbiased[row]
            inv_std_b = (1.0 / np.sqrt(var + self.eps)).reshape(shape)
            x_hat = (x - mean.reshape(shape)) * inv_std_b
        gamma = self._params[:, self.g_start : self.g_stop].reshape(shape)
        beta = self._params[:, self.b_start : self.b_stop].reshape(shape)
        self._cache = (x_hat, inv_std_b)
        return gamma * x_hat + beta

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x_hat, inv_std_b = self._cache
        rows = grad_output.shape[0]
        shape = self._bshape(rows)
        count = grad_output[0].size // self.num_features

        self._grads[:, self.g_start : self.g_stop] = (
            grad_output * x_hat
        ).sum(axis=self._axes)
        self._grads[:, self.b_start : self.b_stop] = grad_output.sum(
            axis=self._axes
        )

        gamma = self._params[:, self.g_start : self.g_stop].reshape(shape)
        grad_xhat = grad_output * gamma
        if self.frozen:
            grad_input = grad_xhat * inv_std_b
        else:
            sum_grad = grad_xhat.sum(axis=self._axes, keepdims=True)
            sum_grad_xhat = (grad_xhat * x_hat).sum(
                axis=self._axes, keepdims=True
            )
            grad_input = (
                inv_std_b
                / count
                * (count * grad_xhat - sum_grad - x_hat * sum_grad_xhat)
            )
        self._cache = None
        return grad_input


class _WorkerFold:
    """Run a parameterless per-image layer with workers folded into batch.

    Pooling and flatten act on each image independently, so stacking the
    R workers' batches into one ``(R*B, ...)`` batch and running the
    existing per-worker layer is the *identical* floating-point
    computation — the fold is pure reshaping.
    """

    __slots__ = ("_layer", "covered")

    def __init__(self, layer: Module):
        self._layer = layer
        self.covered = 0

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        return None

    def forward(self, x: np.ndarray) -> np.ndarray:
        rows, batch = x.shape[:2]
        out = self._layer.forward(
            x.reshape((rows * batch,) + x.shape[2:])
        )
        return out.reshape((rows, batch) + out.shape[1:])

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        rows, batch = grad_output.shape[:2]
        grad = self._layer.backward(
            grad_output.reshape(
                (rows * batch,) + grad_output.shape[2:]
            )
        )
        return grad.reshape((rows, batch) + grad.shape[1:])


class _BatchedBasicBlock:
    """ResNet basic block over a leading worker axis.

    Composes the batched conv/norm/activation counterparts and mirrors
    :class:`~repro.nn.models.resnet.BasicBlock`'s forward/backward —
    including the residual add and the gradient fan-in — operation for
    operation.
    """

    __slots__ = (
        "conv1", "bn1", "relu1", "conv2", "bn2", "relu2",
        "proj_conv", "proj_bn", "covered",
    )

    def __init__(self, block, offsets: dict[int, int]):
        self.conv1 = _BatchedConv2d(block.conv1, offsets)
        self.bn1 = _BatchedBatchNorm(block.bn1, offsets)
        self.relu1 = _lower_layer(block.relu1, offsets)
        self.conv2 = _BatchedConv2d(block.conv2, offsets)
        self.bn2 = _BatchedBatchNorm(block.bn2, offsets)
        self.relu2 = _lower_layer(block.relu2, offsets)
        if block.has_projection:
            self.proj_conv = _BatchedConv2d(block.proj_conv, offsets)
            self.proj_bn = _BatchedBatchNorm(block.proj_bn, offsets)
        else:
            self.proj_conv = None
            self.proj_bn = None
        self.covered = sum(
            child.covered for child in self._children()
        )

    def _children(self):
        children = [
            self.conv1, self.bn1, self.relu1,
            self.conv2, self.bn2, self.relu2,
        ]
        if self.proj_conv is not None:
            children += [self.proj_conv, self.proj_bn]
        return children

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        for child in self._children():
            child.bind(params, grads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.relu1.forward(self.bn1.forward(self.conv1.forward(x)))
        out = self.bn2.forward(self.conv2.forward(out))
        if self.proj_conv is not None:
            shortcut = self.proj_bn.forward(self.proj_conv.forward(x))
        else:
            shortcut = x
        return self.relu2.forward(out + shortcut)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = self.relu2.backward(grad_output)
        grad_main = self.conv1.backward(
            self.bn1.backward(
                self.relu1.backward(
                    self.conv2.backward(self.bn2.backward(grad))
                )
            )
        )
        if self.proj_conv is not None:
            grad_skip = self.proj_conv.backward(self.proj_bn.backward(grad))
        else:
            grad_skip = grad
        return grad_main + grad_skip


class _BatchedChain:
    """A lowered nested ``Sequential``: run children in order."""

    __slots__ = ("layers", "covered")

    def __init__(self, layers: list):
        self.layers = layers
        self.covered = sum(layer.covered for layer in layers)

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        for layer in self.layers:
            layer.bind(params, grads)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output


# ----------------------------------------------------------------------
# Batched losses (per-worker loss vector instead of a scalar)
# ----------------------------------------------------------------------
class _BatchedSoftmaxCE:
    """Softmax cross-entropy over ``(R, B, C)`` logits, ``(R, B)`` labels."""

    __slots__ = ("_probs", "_labels")

    def __init__(self):
        self._probs = None
        self._labels = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray):
        labels = np.asarray(targets, dtype=np.int64)
        log_probs = log_softmax(predictions, axis=-1)
        self._probs = softmax(predictions, axis=-1)
        self._labels = labels
        picked = np.take_along_axis(log_probs, labels[:, :, None], axis=2)
        return -picked[:, :, 0].mean(axis=1)

    def backward(self) -> np.ndarray:
        rows, batch = self._labels.shape
        grad = self._probs.copy()
        grad[
            np.arange(rows)[:, None], np.arange(batch)[None, :], self._labels
        ] -= 1.0
        grad /= batch
        self._probs = None
        self._labels = None
        return grad


class _BatchedMSE:
    """MSE over ``(R, B, C)`` predictions; integer labels one-hot encoded."""

    __slots__ = ("_diff",)

    def __init__(self):
        self._diff = None

    def forward(self, predictions: np.ndarray, targets: np.ndarray):
        targets = np.asarray(targets)
        if targets.ndim == 2 and predictions.shape[-1] > 1:
            rows, batch = targets.shape
            targets = one_hot(
                targets.ravel(), predictions.shape[-1]
            ).reshape(rows, batch, predictions.shape[-1])
        targets = targets.reshape(predictions.shape).astype(np.float64)
        self._diff = predictions - targets
        return np.mean(self._diff**2, axis=(1, 2))

    def backward(self) -> np.ndarray:
        diff = self._diff
        grad = 2.0 * diff / (diff.shape[1] * diff.shape[2])
        self._diff = None
        return grad


# ----------------------------------------------------------------------
# Program
# ----------------------------------------------------------------------
class BatchedProgram:
    """A lowered model: batched layers plus a batched loss.

    Built once per model by :func:`lower_supervised_model`; executed via
    :meth:`gradient_all` with fresh parameter/gradient matrices every
    call (binding is a handful of reshaped views, so per-call cost is
    negligible).
    """

    def __init__(self, model, layers, loss):
        self.model = model
        self.layers = layers
        self.loss = loss

    def gradient_all(
        self,
        params: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        grads: np.ndarray,
    ) -> np.ndarray:
        """One batched forward/backward; returns per-worker losses.

        ``params``/``grads`` are aligned ``(R, dim)`` matrices; ``xs``
        is the stacked ``(R, B, ...)`` input and ``ys`` the stacked
        ``(R, B)`` targets.  Every gradient row is written in place.
        Rows whose batch loss is non-finite get an all-NaN gradient,
        matching the per-worker oracle's divergence short-circuit;
        non-finite *parameter* rows are the caller's job to filter out
        beforehand (batch-norm statistics are a shared side effect).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            for layer in self.layers:
                layer.bind(params, grads)
            h = xs
            for layer in self.layers:
                h = layer.forward(h)
            losses = self.loss.forward(h, ys)
            grad = self.loss.backward()
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            weight_decay = self.model.weight_decay
            if weight_decay > 0.0:
                grads += weight_decay * params
            bad = ~np.isfinite(losses)
            if bad.any():
                grads[bad] = np.nan
        return losses


class _Bindable:
    """Adapter giving stateless elementwise layers a no-op ``bind``."""

    __slots__ = ("_layer", "covered")

    def __init__(self, layer: Module):
        self._layer = layer
        self.covered = 0

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        return None

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self._layer.forward(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self._layer.backward(grad_output)


class _BatchedDropout:
    """Batched inverted dropout consuming the original layer's stream.

    The per-worker loop shares one model across workers, so worker
    ``r``'s mask is the ``r``-th sequential draw from the layer's own
    generator.  The batched forward replays exactly that — row ``r``
    draws shape ``x.shape[1:]`` from the *original* layer's generator —
    so both backends consume identical streams, masks match bit for
    bit, and checkpointed dropout-RNG state stays backend-agnostic.

    Constraint: with several live dropout layers sharing one generator
    the loop interleaves draws worker-major (worker 0 layer A, worker 0
    layer B, worker 1 layer A, ...) while a layer-by-layer batched pass
    is layer-major; lowering refuses that configuration
    (``layer:Dropout(shared-rng)``) rather than silently diverge.
    """

    __slots__ = ("_layer", "covered", "_mask")

    def __init__(self, layer: Dropout):
        self._layer = layer
        self.covered = 0
        self._mask: np.ndarray | None = None

    def bind(self, params: np.ndarray, grads: np.ndarray) -> None:
        return None

    def forward(self, x: np.ndarray) -> np.ndarray:
        layer = self._layer
        keep = 1.0 - layer.p
        mask = np.empty(x.shape)
        for row in range(x.shape[0]):
            mask[row] = (layer.rng.random(x.shape[1:]) < keep) / keep
        self._mask = mask
        return x * mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output * self._mask
        self._mask = None
        return grad


# Elementwise layers are shape-agnostic: the exact per-worker classes
# run unchanged on (R, B, ...) tensors, so lowering just wraps a
# fresh instance (identical math, identical numerics).
_ELEMENTWISE = ("ReLU", "LeakyReLU", "Sigmoid", "Tanh")


def _lower_layer(layer: Module, offsets: dict[int, int]):
    """One layer's batched counterpart, or ``None`` if unsupported."""
    if isinstance(layer, Dense):
        return _BatchedDense(layer, offsets)
    if isinstance(layer, Conv2d):
        return _BatchedConv2d(layer, offsets)
    if isinstance(layer, _BatchNorm):
        return _BatchedBatchNorm(layer, offsets)
    if isinstance(layer, MaxPool2d):
        return _WorkerFold(MaxPool2d(layer.kernel_size, layer.stride))
    if isinstance(layer, AvgPool2d):
        return _WorkerFold(AvgPool2d(layer.kernel_size, layer.stride))
    if isinstance(layer, GlobalAvgPool2d):
        return _WorkerFold(GlobalAvgPool2d())
    if isinstance(layer, Flatten):
        return _WorkerFold(Flatten())
    name = type(layer).__name__
    if name in _ELEMENTWISE:
        clone = type(layer).__new__(type(layer))
        Module.__init__(clone)
        for attr, value in vars(layer).items():
            if attr.startswith("_") or attr == "training":
                continue
            object.__setattr__(clone, attr, value)
        # Reset per-pass caches the constructors normally initialize.
        for attr in ("_mask", "_out"):
            object.__setattr__(clone, attr, None)
        return _Bindable(clone)
    if isinstance(layer, Dropout):
        if layer.p == 0.0:
            # p=0 dropout is the identity in both modes and draws
            # nothing, so a detached clone suffices.
            return _Bindable(Dropout(0.0))
        return _BatchedDropout(layer)
    if isinstance(layer, Sequential):
        lowered = [_lower_layer(child, offsets) for child in layer.layers]
        if any(child is None for child in lowered):
            return None
        return _BatchedChain(lowered)
    # ResNet's residual block (imported lazily: models sit above nn).
    from repro.nn.models.resnet import BasicBlock

    if isinstance(layer, BasicBlock):
        return _BatchedBasicBlock(layer, offsets)
    return None


def _unsupported_layer_reason(layer: Module) -> str:
    """Machine-readable reason tag for a layer that failed to lower."""
    return f"layer:{type(layer).__name__}"


def _note_unsupported(model, reason: str) -> None:
    """Surface a lowering fallback: tracer counter + one-time debug log."""
    tracer = get_tracer()
    if tracer.enabled:
        tracer.count(f"batched.lower.unsupported.{reason}")
    key = (type(model.module).__name__, reason)
    if key not in _logged_reasons:
        _logged_reasons.add(key)
        logger.debug(
            "batched lowering unsupported for %s: %s "
            "(falling back to the per-worker loop)",
            type(model.module).__name__,
            reason,
        )


def _lower_model(model) -> tuple[BatchedProgram | None, str | None]:
    """Lowering core: ``(program, None)`` or ``(None, reason)``."""
    module = model.module
    if isinstance(module, Sequential):
        stack = list(module.layers)
    elif isinstance(module, Dense):
        stack = [module]
    elif hasattr(module, "batched_stack"):
        # Composite bodies (e.g. the ResNet trunk) expose their layer
        # pipeline explicitly for the lowering walk.
        stack = list(module.batched_stack())
    else:
        return None, f"module:{type(module).__name__}"

    if isinstance(model.loss_fn, SoftmaxCrossEntropyLoss):
        loss = _BatchedSoftmaxCE()
    elif isinstance(model.loss_fn, MSELoss):
        loss = _BatchedMSE()
    else:
        return None, f"loss:{type(model.loss_fn).__name__}"

    live_dropout = [
        child
        for child in module.modules()
        if isinstance(child, Dropout) and child.p > 0.0
    ]
    if len({id(child.rng) for child in live_dropout}) < len(live_dropout):
        # Worker-major vs layer-major draw interleaving diverges when
        # live dropout layers share a generator (see _BatchedDropout).
        return None, "layer:Dropout(shared-rng)"

    offsets: dict[int, int] = {}
    cursor = 0
    for param in module.parameters():
        offsets[id(param)] = cursor
        cursor += param.size

    layers = []
    covered = 0
    for layer in stack:
        lowered = _lower_layer(layer, offsets)
        if lowered is None:
            return None, _unsupported_layer_reason(layer)
        covered += lowered.covered
        layers.append(lowered)
    if covered != cursor:
        # Some parameter lives outside the lowered layers; the batched
        # backward would leave its gradient stale.
        return None, "params:uncovered"
    if layers and isinstance(layers[0], (_BatchedDense, _BatchedConv2d)):
        # gradient_all discards the gradient w.r.t. the input batch, so
        # the first layer skips its input-gradient GEMM (and col2im).
        layers[0].needs_input_grad = False
    return BatchedProgram(model, layers, loss), None


def lower_supervised_model(model, *, explain: bool = False):
    """Lower ``model`` to a :class:`BatchedProgram`, or ``None``.

    A model lowers when its module is a flat :class:`Sequential` (or a
    bare :class:`Dense`, or a composite exposing ``batched_stack()``)
    of supported layers, its loss is softmax cross-entropy or MSE, and
    the lowered layers cover every parameter (so the batched backward
    fills the whole gradient row).

    With ``explain=True`` returns ``(program, reason)`` where ``reason``
    is ``None`` on success and a machine-readable tag otherwise
    (``module:<Type>``, ``loss:<Type>``, ``layer:<Type>``,
    ``layer:Dropout(shared-rng)``, ``params:uncovered``).  Every failed
    lowering also bumps the ``batched.lower.unsupported.<reason>``
    tracer counter and emits a one-time debug log.
    """
    program, reason = _lower_model(model)
    if reason is not None:
        _note_unsupported(model, reason)
    if explain:
        return program, reason
    return program
