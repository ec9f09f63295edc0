"""Batch normalization.

Running statistics are buffers, not Parameters: they are excluded from the
flat parameter vector the FL algorithms aggregate, matching common FL
practice of averaging only trainable weights.  (An option to synchronize
buffers explicitly is provided via ``get_buffers``/``set_buffers``.)
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, Parameter
from repro.utils.validation import check_positive_int

__all__ = ["BatchNorm2d"]

# Running-statistics momentum and the variance floor (PyTorch's
# defaults); every model in the zoo uses these.
MOMENTUM = 0.1
EPS = 1e-5

# Reduced axes of the (R, B, C, H, W) input.
_AXES = (1, 3, 4)


class BatchNorm2d(Module):
    """Batch norm over (R, B, C, H, W) inputs, per channel.

    Training mode normalizes each row of an ``(R, B, ...)`` input with
    that row's own batch statistics and folds them into the one pair of
    running buffers in row order, the same ``*= (1-m); += m*stat``
    update a single model applies per batch.  Eval mode normalizes every
    row with the running statistics, and its backward is the
    elementwise-affine adjoint (gamma/beta gradients plus
    ``grad * gamma * inv_std``).
    """

    def __init__(self, num_features: int):
        super().__init__()
        self.num_features = check_positive_int(num_features, "num_features")

        self.gamma = Parameter(np.ones(num_features, dtype=np.float64), "gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=np.float64), "beta")
        self.running_mean = np.zeros(num_features, dtype=np.float64)
        self.running_var = np.ones(num_features, dtype=np.float64)

        self._gamma: np.ndarray | None = None
        self._beta: np.ndarray | None = None
        self._grads: np.ndarray | None = None
        self._cache: tuple | None = None

    def get_buffers(self) -> dict[str, np.ndarray]:
        """Copy of the running statistics (not aggregated by FL)."""
        return {
            "running_mean": self.running_mean.copy(),
            "running_var": self.running_var.copy(),
        }

    def set_buffers(self, buffers: dict[str, np.ndarray]) -> None:
        """Overwrite the running statistics."""
        np.copyto(self.running_mean, buffers["running_mean"])
        np.copyto(self.running_var, buffers["running_var"])

    def bind(self, params: np.ndarray, grads: np.ndarray | None) -> None:
        c = self.num_features
        self._gamma = params[:, :c]
        self._beta = params[:, c:]
        self._grads = grads

    def _shape(self, rows: int) -> tuple:
        """Broadcast shape of a per-row, per-channel statistic."""
        return (rows, 1, self.num_features, 1, 1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 5:
            raise ValueError(
                f"BatchNorm2d expects 5-D (R, B, C, H, W) input, "
                f"got {x.ndim}-D"
            )
        rows, c = x.shape[0], self.num_features
        shape = self._shape(rows)
        if self.training:
            mean = x.mean(axis=_AXES)  # (R, C)
            var = x.var(axis=_AXES)
            count = x[0].size // c
            # Unbiased variance for the running estimate, as in PyTorch.
            unbiased = var * count / max(count - 1, 1)
            momentum = MOMENTUM
            for row in range(rows):
                self.running_mean *= 1.0 - momentum
                self.running_mean += momentum * mean[row]
                self.running_var *= 1.0 - momentum
                self.running_var += momentum * unbiased[row]
            inv_std = (1.0 / np.sqrt(var + EPS)).reshape(shape)
            x_hat = (x - mean.reshape(shape)) * inv_std
        else:
            inv_std = np.broadcast_to(
                (1.0 / np.sqrt(self.running_var + EPS)).reshape(
                    shape[1:]
                ),
                shape,
            )
            x_hat = (x - self.running_mean.reshape(shape[1:])) * inv_std
        self._cache = (x_hat, inv_std, self.training)
        return self._gamma.reshape(shape) * x_hat + self._beta.reshape(shape)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, trained = self._cache
        rows, c = grad_output.shape[0], self.num_features
        count = grad_output[0].size // c

        self._grads[:, :c] = (grad_output * x_hat).sum(axis=_AXES)
        self._grads[:, c:] = grad_output.sum(axis=_AXES)

        grad_xhat = grad_output * self._gamma.reshape(self._shape(rows))
        self._cache = None
        if not trained:
            # Eval mode normalizes with *frozen* running statistics, so
            # the map is elementwise-affine in x: no batch-coupling
            # terms in the adjoint.
            return grad_xhat * inv_std
        sum_grad = grad_xhat.sum(axis=_AXES, keepdims=True)
        sum_grad_xhat = (grad_xhat * x_hat).sum(axis=_AXES, keepdims=True)
        return (
            inv_std / count * (count * grad_xhat - sum_grad - x_hat * sum_grad_xhat)
        )

