"""Model + loss bundle: the gradient oracle the FL algorithms consume.

A :class:`SupervisedModel` pairs a :class:`~repro.nn.module.Module` with a
loss and runs one **program** over it: the module's layers in order
(a ``Sequential``'s children, or the module itself), each bound to its
block of columns of an ``(R, dim)`` parameter matrix.  It exposes
exactly the operations federated learning needs:

* ``gradient_all(params, xs, ys, grads)`` — every row's flat gradient of
  its mean batch loss, the paper's ``∇F_{i,ℓ}(x)`` for a whole fleet,
* ``gradient(x, y)`` — the same program for one model (``R = 1``),
* ``loss(x, y)`` / ``accuracy(x, y)`` / ``evaluate(x, y)`` — a
  forward-only ``R = 1`` pass with batch norm on its running statistics,
* flat get/set of the parameter vector.

A heavy ``gradient_all`` pass splits its rows into two contiguous
blocks on two threads, when the process may use two CPUs and its
forward multiply-adds (``Module.macs``) pay for the second thread: see
:meth:`SupervisedModel.gradient_all`.
"""

from __future__ import annotations

import copy
import os

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.linear import Dense
from repro.nn.losses import Loss, SoftmaxCrossEntropyLoss
from repro.nn.module import Module, Sequential
from repro.nn.norm import BatchNorm2d
from repro.telemetry import get_tracer

__all__ = ["SupervisedModel"]

# Forward multiply-adds per row block of a split pass: a pass runs
# min(MAX_BLOCKS, CPUs, rows, macs // SPLIT_MACS) blocks.  Below two
# blocks' worth, handing rows to a thread costs more than the second
# core gives back (the measured crossover is in CHANGES.md).
SPLIT_MACS = 2_000_000
# Row blocks a pass may use: the crossover was measured one thread
# against two blocks, and more blocks of the same pass are smaller
# blocks, each paying the per-layer Python cost, so a wider split is
# not assumed to pay.
MAX_BLOCKS = 2


def _cpus() -> int:
    """CPUs in this process's affinity (every CPU where none is kept)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The worker threads of split passes, a ThreadPoolExecutor built at the
# first split; it starts a thread only when no idle one takes the block.
# A forked child inherits the pool object but none of its threads, so a
# pool built in another process is replaced (``_pool_pid``).
_pool = None
_pool_pid = 0


def _executor():
    global _pool, _pool_pid
    if _pool is None or _pool_pid != os.getpid():
        # Imported here: concurrent.futures loads logging, which would
        # add milliseconds to the start of every process.
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_cpus(), thread_name_prefix="repro-rows")
        _pool_pid = os.getpid()
    return _pool


class SupervisedModel:
    """A trainable model with a loss attached."""

    def __init__(self, module: Module, loss: Loss | None = None):
        self.module = module
        self.loss_fn = loss if loss is not None else SoftmaxCrossEntropyLoss()
        self.layers = (
            list(module.layers) if isinstance(module, Sequential) else [module]
        )
        # (layer index, its parameter columns) of every layer with any.
        self._columns = []
        start = 0
        for index, layer in enumerate(self.layers):
            if layer.covered:
                self._columns.append(
                    (index, slice(start, start + layer.covered))
                )
            start += layer.covered
        if start != module.num_params():
            raise ValueError(
                f"the layers of {type(module).__name__} cover {start} of "
                f"its {module.num_params()} parameters"
            )
        if isinstance(self.layers[0], (Dense, Conv2d)):
            # The program discards the gradient w.r.t. the data, so the
            # first layer skips its input-gradient GEMM (and col2im).
            self.layers[0].needs_input_grad = False
        self._norms = [
            layer for layer in module.modules() if isinstance(layer, BatchNorm2d)
        ]
        # One replica per extra row block, built at the first split that
        # needs it, and one sample's forward multiply-adds per shape.
        self._replicas: list[SupervisedModel] = []
        self._sample_macs: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    @property
    def num_params(self) -> int:
        return self.module.num_params()

    def get_flat_params(self) -> np.ndarray:
        return self.module.get_flat_params()

    def set_flat_params(self, flat: np.ndarray) -> None:
        self.module.set_flat_params(flat)

    # ------------------------------------------------------------------
    # Training-side compute
    # ------------------------------------------------------------------
    def _bind(self, params: np.ndarray, grads: np.ndarray | None) -> None:
        layers = self.layers
        for index, columns in self._columns:
            layers[index].bind(
                params[:, columns], None if grads is None else grads[:, columns]
            )

    def _forward(self, h: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            h = layer.forward(h)
        return h

    def gradient_all(
        self,
        params: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        grads: np.ndarray,
    ) -> np.ndarray:
        """One forward/backward over R rows; returns the ``(R,)`` losses.

        ``params``/``grads`` are aligned ``(R, dim)`` matrices; ``xs`` is
        the stacked ``(R, B, ...)`` input and ``ys`` the ``(R, B)``
        targets.  Every gradient row is written in place.

        A pass whose forward takes at least ``2 * SPLIT_MACS``
        multiply-adds splits its rows into ``min(MAX_BLOCKS, CPUs, R,
        macs // SPLIT_MACS)`` contiguous blocks whose sizes differ by at
        most one.  This thread runs the first block on the model's own
        layers; a persistent pool runs each other block on a replica of
        the module tree.  Every row's arithmetic is the one-thread
        pass's, so gradients and losses match it bit for bit, and batch
        norm folds the blocks' statistics after they join, in row order.
        A pass never splits under a recording tracer, so every span
        comes from one thread.  It returns, or raises a block's
        exception, only once every block has finished.

        Divergence is handled per row.  A row with non-finite parameters
        is left out of the pass: it gets an all-NaN gradient and a NaN
        loss, and batch norm's running statistics never see it.  A row
        whose batch loss is non-finite gets an all-NaN gradient.  The
        pass runs under ``np.errstate``, so overflow in a diverging run
        cannot leak ``RuntimeWarning``s (the run loop's
        ``stop_on_divergence`` sees the NaN loss instead).
        """
        if np.isfinite(params).all():
            return self._pass(params, xs, ys, grads)
        finite = np.isfinite(params).all(axis=1)
        keep = np.flatnonzero(finite)
        losses = np.full(finite.size, np.nan)
        if keep.size:
            kept = grads[keep]
            losses[keep] = self._pass(params[keep], xs[keep], ys[keep], kept)
            grads[keep] = kept
        grads[~finite] = np.nan
        return losses

    def _blocks(self, xs: np.ndarray) -> int:
        """Row blocks of a pass over ``xs``: 1 unless it pays to split."""
        rows = xs.shape[0]
        if rows < 2:
            return 1
        shape = xs.shape[2:]
        per_sample = self._sample_macs.get(shape)
        if per_sample is None:
            per_sample = self._sample_macs[shape] = self.module.macs(shape)[0]
        blocks = min(rows, MAX_BLOCKS, rows * xs.shape[1] * per_sample // SPLIT_MACS)
        return 1 if blocks < 2 else min(blocks, _cpus())

    def _pass(self, params, xs, ys, grads) -> np.ndarray:
        tracer = get_tracer()
        blocks = 1 if tracer.enabled else self._blocks(xs)
        if blocks == 1:
            return self._run(tracer, params, xs, ys, grads)
        replicas = self._replicas
        while len(replicas) < blocks - 1:
            replicas.append(
                SupervisedModel(self.module.replica(), copy.copy(self.loss_fn))
            )
        size, extra = divmod(xs.shape[0], blocks)
        bounds = [0]
        for block in range(blocks):
            bounds.append(bounds[-1] + size + (block < extra))
        spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        pool = _executor()
        futures = [
            pool.submit(
                replica._run, tracer, params[rows], xs[rows], ys[rows], grads[rows]
            )
            for replica, rows in zip(replicas, spans[1:])
        ]
        losses = np.empty(xs.shape[0])
        try:
            first = spans[0]
            losses[first] = self._run(
                tracer, params[first], xs[first], ys[first], grads[first]
            )
        finally:
            for future in futures:
                # Waits for the block; its exception is raised below.
                future.exception()
        for future, rows in zip(futures, spans[1:]):
            losses[rows] = future.result()
        # The errstate of _run, which this thread has left: a diverging
        # block's statistics may be infinite.
        with np.errstate(over="ignore", invalid="ignore"):
            for replica in replicas[: blocks - 1]:
                for norm, twin in zip(self._norms, replica._norms):
                    norm.fold_from(twin)
        return losses

    def _run(self, tracer, params, xs, ys, grads) -> np.ndarray:
        # The oracle spans exist only while a recording tracer is
        # installed: the disabled branch costs one attribute check.
        with np.errstate(over="ignore", invalid="ignore"):
            self.module.train()
            self._bind(params, grads)
            if tracer.enabled:
                with tracer.span("oracle.forward"):
                    losses = self.loss_fn.forward(self._forward(xs), ys)
                with tracer.span("oracle.backward"):
                    self._backward(grads, losses)
            else:
                losses = self.loss_fn.forward(self._forward(xs), ys)
                self._backward(grads, losses)
        return losses

    def _backward(self, grads, losses) -> None:
        grad = self.loss_fn.backward()
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        if not np.isfinite(losses).all():
            grads[~np.isfinite(losses)] = np.nan

    def gradient(
        self,
        x: np.ndarray,
        y: np.ndarray,
        params: np.ndarray | None = None,
        *,
        out: np.ndarray | None = None,
    ) -> tuple[np.ndarray, float]:
        """Return ``(flat_grad, loss_value)`` of the mean loss on a batch.

        The program at ``R = 1``: evaluated at ``params`` when given
        (the module's own parameters are not touched), else at the
        module's parameters.  ``out``, when given, receives the gradient
        in place and is returned.  The tests and
        ``benchmarks/bench_batched.py`` use it as the R = 1 reference for
        :meth:`gradient_all`; ``repro.theory`` calls it without ``out``.
        """
        if params is None:
            params = self.module.flat_buffer().data
        grads = np.empty((1, self.num_params)) if out is None else out[None]
        loss = self.gradient_all(
            np.asarray(params)[None], x[None], np.asarray(y)[None], grads
        )
        return grads[0] if out is None else out, float(loss[0])

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Forward pass in eval mode, batched to bound memory."""
        self.module.eval()
        self._bind(self.module.flat_buffer().data[None], None)
        outputs = [
            self._forward(x[None, i : i + batch_size])[0]
            for i in range(0, x.shape[0], batch_size)
        ]
        self.module.train()
        return np.concatenate(outputs, axis=0)

    def _loss_of(self, predictions: np.ndarray, y: np.ndarray) -> float:
        return float(self.loss_fn.forward(predictions[None], np.asarray(y)[None])[0])

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean loss on ``(x, y)`` in eval mode."""
        return self._loss_of(self.predict(x), y)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """``(accuracy, loss)`` on ``(x, y)`` from one forward pass.

        The accuracy is top-1 (argmax over the output dimension); the
        loss is :meth:`loss`'s, without a second pass over the set.
        """
        predictions = self.predict(x)
        return self._accuracy_of(predictions, y), self._loss_of(predictions, y)

    @staticmethod
    def _accuracy_of(predictions: np.ndarray, y: np.ndarray) -> float:
        if predictions.ndim != 2:
            raise ValueError(
                f"accuracy needs (N, classes) outputs, got {predictions.shape}"
            )
        return float(np.mean(predictions.argmax(axis=1) == np.asarray(y)))
