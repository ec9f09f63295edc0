"""Finite-difference gradient checks for every layer type.

These are the load-bearing tests of the nn substrate: if a layer's
backward pass is right, FL training dynamics above it are trustworthy.
Each check builds a tiny net ending in a scalar-producing loss and
compares analytic and numeric gradients at random coordinates.

Multi-row passes (conv / pool / batch norm over a leading worker axis
of several rows) are checked the same way, against central differences
of the program's own per-row losses — a second check, independent of
the tape oracle of ``test_batched.py``.
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    GlobalAvgPool2d,
    MaxPool2d,
    MSELoss,
    ReLU,
    Sequential,
    SoftmaxCrossEntropyLoss,
    SupervisedModel,
)

RNG = np.random.default_rng(1234)


def check_model_gradient(model, x, y, num_coords=10, eps=1e-6, tol=2e-4):
    """Assert analytic grad matches central differences at random coords."""
    params = model.get_flat_params()
    analytic, _ = model.gradient(x, y, params)
    coords = RNG.choice(params.size, size=min(num_coords, params.size),
                        replace=False)
    for index in coords:
        plus = params.copy()
        plus[index] += eps
        loss_plus = model.gradient(x, y, plus)[1]
        minus = params.copy()
        minus[index] -= eps
        loss_minus = model.gradient(x, y, minus)[1]
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert analytic[index] == pytest.approx(numeric, abs=tol), (
            f"coord {index}: analytic={analytic[index]}, numeric={numeric}"
        )


def eval_pass(model, params, xs, ys):
    """``(grads, losses)`` of one pass with batch norm on its running
    statistics, through the module's public bind/forward/backward."""
    grads = np.zeros_like(params)
    model.module.eval()
    model.module.bind(params, grads)
    losses = model.loss_fn.forward(model.module.forward(xs), ys)
    model.module.backward(model.loss_fn.backward())
    model.module.train()
    return grads, losses


def image_batch(n=4, c=2, size=6):
    return RNG.normal(size=(n, c, size, size))


def labels(n=4, classes=3):
    return RNG.integers(0, classes, size=n)


class TestDenseGrad:
    def test_dense_ce(self):
        model = SupervisedModel(Dense(5, 3, rng=1), SoftmaxCrossEntropyLoss())
        check_model_gradient(model, RNG.normal(size=(6, 5)), labels(6))

    def test_dense_mse(self):
        model = SupervisedModel(Dense(5, 3, rng=1), MSELoss())
        check_model_gradient(model, RNG.normal(size=(6, 5)), labels(6))


class TestConvGrad:
    def test_conv_basic(self):
        net = Sequential(Conv2d(2, 3, 3, rng=1), Flatten(), Dense(48, 3, rng=2))
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(model, image_batch(), labels())

    def test_conv_stride_padding(self):
        net = Sequential(
            Conv2d(2, 2, 3, stride=2, padding=1, rng=1),
            Flatten(),
            Dense(2 * 3 * 3, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(model, image_batch(), labels())

    def test_conv_no_bias(self):
        net = Sequential(
            Conv2d(1, 2, 2, bias=False, rng=1), Flatten(),
            Dense(2 * 5 * 5, 2, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(
            model, RNG.normal(size=(3, 1, 6, 6)), labels(3, 2)
        )


class TestPoolingGrad:
    def test_maxpool(self):
        net = Sequential(
            Conv2d(2, 2, 3, padding=1, rng=1), MaxPool2d(2), Flatten(),
            Dense(2 * 3 * 3, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(model, image_batch(), labels())

    def test_global_avgpool(self):
        net = Sequential(
            Conv2d(2, 4, 3, padding=1, rng=1), GlobalAvgPool2d(),
            Dense(4, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(model, image_batch(), labels())

    def test_overlapping_maxpool(self):
        net = Sequential(MaxPool2d(3, stride=1), Flatten(),
                         Dense(2 * 4 * 4, 2, rng=2))
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(model, image_batch(3, 2, 6), labels(3, 2))


class TestActivationGrads:
    def test_activation(self):
        net = Sequential(Dense(4, 6, rng=1), ReLU(), Dense(6, 3, rng=2))
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        # Shift inputs away from ReLU's kink to keep finite diffs clean.
        x = RNG.normal(size=(5, 4)) + 0.05
        check_model_gradient(model, x, labels(5))


class TestBatchNormGrad:
    def test_batchnorm2d(self):
        net = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=1), BatchNorm2d(3), ReLU(),
            Flatten(), Dense(3 * 6 * 6, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_model_gradient(model, image_batch(), labels(), tol=5e-4)

    def test_batchnorm2d_eval_mode(self):
        """Eval-mode backward: frozen running stats, affine adjoint."""
        net = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=1), BatchNorm2d(3), ReLU(),
            Flatten(), Dense(3 * 6 * 6, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        model.gradient(image_batch(8), labels(8))
        check_eval_model_gradient(model, image_batch(), labels())


def check_eval_model_gradient(model, x, y, num_coords=8, eps=1e-6, tol=2e-4):
    """Gradcheck with the module in eval mode (frozen batch-norm stats)."""
    params = model.get_flat_params()
    analytic = eval_pass(model, params[None], x[None], y[None])[0][0]
    coords = RNG.choice(params.size, size=min(num_coords, params.size),
                        replace=False)
    for index in coords:
        plus = params.copy()
        plus[index] += eps
        model.set_flat_params(plus)
        loss_plus = model.loss(x, y)
        minus = params.copy()
        minus[index] -= eps
        model.set_flat_params(minus)
        loss_minus = model.loss(x, y)
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert analytic[index] == pytest.approx(numeric, abs=tol), (
            f"coord {index}: analytic={analytic[index]}, numeric={numeric}"
        )
    model.set_flat_params(params)


# ----------------------------------------------------------------------
# Multi-row (worker-stacked) adjoints
# ----------------------------------------------------------------------
def check_batched_gradient(
    model, xs, ys, *, freeze_bn=False, num_coords=8, eps=1e-6, tol=2e-4
):
    """Gradcheck a multi-row pass against its own per-row losses.

    Each row's loss depends only on that row's parameters, so the
    analytic row gradients are checked against central differences of
    the matching per-row loss.  ``freeze_bn`` runs batch norm on its
    running statistics.
    """
    def run(params):
        if freeze_bn:
            return eval_pass(model, params, xs, ys)
        grads = np.empty_like(params)
        return grads, model.gradient_all(params, xs, ys, grads)

    rows = xs.shape[0]
    params = np.stack([model.get_flat_params()] * rows)
    params += RNG.normal(size=params.shape, scale=0.05)
    grads, _ = run(params)

    flat_coords = RNG.choice(
        params.size, size=min(num_coords, params.size), replace=False
    )
    for flat_index in flat_coords:
        row, index = divmod(int(flat_index), params.shape[1])
        plus = params.copy()
        plus[row, index] += eps
        loss_plus = run(plus)[1][row]
        minus = params.copy()
        minus[row, index] -= eps
        loss_minus = run(minus)[1][row]
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert grads[row, index] == pytest.approx(numeric, abs=tol), (
            f"row {row} coord {index}: analytic={grads[row, index]}, "
            f"numeric={numeric}"
        )


def worker_images(workers=3, n=3, c=2, h=6, w=6):
    return RNG.normal(size=(workers, n, c, h, w))


def worker_labels(workers=3, n=3, classes=3):
    return RNG.integers(0, classes, size=(workers, n))


class TestBatchedAdjoints:
    def test_conv_stride2(self):
        net = Sequential(
            Conv2d(2, 3, 3, stride=2, padding=1, rng=1), ReLU(),
            Flatten(), Dense(3 * 3 * 3, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_batched_gradient(model, worker_images(), worker_labels())

    def test_conv_nonsquare_input(self):
        # H != W exercises the separate out_h/out_w bookkeeping.
        net = Sequential(
            Conv2d(2, 3, 3, stride=2, padding=1, bias=False, rng=1),
            Flatten(), Dense(3 * 3 * 2, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_batched_gradient(
            model, worker_images(h=6, w=4), worker_labels()
        )

    def test_pooling_chain(self):
        net = Sequential(
            Conv2d(2, 2, 3, padding=1, rng=1), MaxPool2d(2), ReLU(),
            Conv2d(2, 3, 3, padding=1, rng=2), GlobalAvgPool2d(),
            Dense(3, 3, rng=3),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        # Nudge off MaxPool tie points for clean finite differences.
        xs = worker_images() + np.linspace(0, 0.01, 6 * 6).reshape(6, 6)
        check_batched_gradient(model, xs, worker_labels())

    def test_global_avgpool_mse(self):
        net = Sequential(
            Conv2d(2, 4, 3, padding=1, rng=1), GlobalAvgPool2d(),
            Dense(4, 3, rng=2),
        )
        model = SupervisedModel(net, MSELoss())
        check_batched_gradient(model, worker_images(), worker_labels())

    def test_batchnorm2d_train_mode(self):
        net = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=1), BatchNorm2d(3), ReLU(),
            Flatten(), Dense(3 * 6 * 6, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        check_batched_gradient(
            model, worker_images(n=4), worker_labels(n=4), tol=5e-4
        )

    def test_batchnorm2d_frozen_running_stats(self):
        net = Sequential(
            Conv2d(2, 3, 3, padding=1, rng=1), BatchNorm2d(3), ReLU(),
            Flatten(), Dense(3 * 6 * 6, 3, rng=2),
        )
        model = SupervisedModel(net, SoftmaxCrossEntropyLoss())
        model.gradient(image_batch(8, 2, 6), labels(8))  # running stats
        check_batched_gradient(
            model, worker_images(), worker_labels(), freeze_bn=True
        )

    def test_basic_block_train_mode(self):
        """Train-mode residual block: batch-norm adjoints are NOT
        elementwise here, so this catches any relu/bn ordering slip in
        ``BasicBlock.backward`` that frozen-stats checks (where the BN
        adjoint commutes with the ReLU mask) cannot see."""
        model = _basic_block_model(stride=2)
        check_batched_gradient(
            model, worker_images(n=4), worker_labels(n=4), tol=5e-4
        )

    def test_basic_block_identity_train_mode(self):
        model = _basic_block_model(stride=1)
        check_batched_gradient(
            model, worker_images(n=4), worker_labels(n=4), tol=5e-4
        )


def _basic_block_model(stride: int) -> SupervisedModel:
    """A tiny net around one residual block (projection iff stride > 1)."""
    from repro.nn.models.resnet import BasicBlock

    rng = np.random.default_rng(7)
    out_channels = 3 if stride > 1 else 2
    net = Sequential(
        BasicBlock(2, out_channels, stride, rng),
        GlobalAvgPool2d(),
        Dense(out_channels, 3, rng=2),
    )
    return SupervisedModel(net, SoftmaxCrossEntropyLoss())


class TestBasicBlockGrad:
    """One-row train-mode residual block gradchecks, a second check of
    the block's adjoint beside the tape oracle."""

    def test_projection_block_train_mode(self):
        model = _basic_block_model(stride=2)
        check_model_gradient(model, image_batch(4), labels(4), tol=5e-4)

    def test_identity_block_train_mode(self):
        model = _basic_block_model(stride=1)
        check_model_gradient(model, image_batch(4), labels(4), tol=5e-4)
