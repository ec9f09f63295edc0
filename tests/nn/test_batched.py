"""The worker-axis program against the tape oracle, row by row.

``SupervisedModel.gradient_all`` runs every layer once over a leading
worker axis.  Its oracle is :mod:`tests.nn.tape`: each row's loss and
gradient are recomputed in a loop, one row at a time, from the layers'
textbook definitions on a reverse-mode tape that shares no code with
``repro.nn``.  Gradients must agree at ``rtol=1e-10`` with an absolute
floor of ``1e-10 * max|g|``, losses at ``rtol=1e-10``, and the batch-norm
running buffers must hold the textbook moving averages of the rows'
batch statistics, folded in row order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Dense,
    Flatten,
    Loss,
    MaxPool2d,
    MSELoss,
    ReLU,
    Sequential,
    SupervisedModel,
)
from repro.nn import conv as conv_module
from repro.nn.models import (
    make_cnn,
    make_linear_regression,
    make_logistic_regression,
    make_mlp,
    make_resnet,
    make_vgg,
)
from repro.nn.module import Module, Parameter
from repro.nn.norm import EPS, MOMENTUM
from tests.nn import tape as T

pytestmark = pytest.mark.batched

NUM_WORKERS = 5
BATCH = 12
FEATURES = 9
CLASSES = 4


# ----------------------------------------------------------------------
# The oracle: a model's layers replayed on the tape, one row at a time
# ----------------------------------------------------------------------
class _Row:
    """One row's forward on the tape; parameters are taken in order."""

    def __init__(self, params: np.ndarray):
        self.tape = T.Tape()
        self.params = params
        self.leaves: list[T.Node] = []
        self.stats: dict[int, tuple] = {}
        self._cursor = 0

    def param(self, shape: tuple) -> T.Node:
        size = int(np.prod(shape))
        block = self.params[self._cursor : self._cursor + size]
        self._cursor += size
        leaf = self.tape.leaf(block.reshape(shape))
        self.leaves.append(leaf)
        return leaf

    def conv(self, layer, h):
        k = layer.kernel_size
        weight = self.param((layer.out_channels, layer.in_channels, k, k))
        bias = self.param((layer.out_channels,)) if layer.use_bias else None
        return T.conv2d(h, weight, bias, layer.stride, layer.padding)

    def norm(self, layer, h):
        c = layer.num_features
        gamma, beta = self.param((c,)), self.param((c,))
        out, mean, var = T.batch_norm(h, gamma, beta, EPS)
        self.stats[id(layer)] = (mean, var, h.value.size // c)
        return out

    def block(self, block, x):
        """conv-bn-relu, conv-bn, plus the (projected) shortcut, relu."""
        # Read through tracing-style wrappers to the layers themselves.
        conv1, bn1, conv2, bn2, proj_conv, proj_bn = (
            getattr(child, "inner", child)
            for child in (
                block.conv1, block.bn1, block.conv2, block.bn2,
                block.proj_conv, block.proj_bn,
            )
        )
        out = T.relu(self.norm(bn1, self.conv(conv1, x)))
        out = self.norm(bn2, self.conv(conv2, out))
        if proj_conv is not None:
            x = self.norm(proj_bn, self.conv(proj_conv, x))
        return T.relu(T.add(out, x))

    def layer(self, layer, h):
        kind = type(layer).__name__
        if kind == "Sequential":
            for child in layer.layers:
                h = self.layer(child, h)
            return h
        if kind == "Dense":
            weight = self.param((layer.out_features, layer.in_features))
            bias = self.param((layer.out_features,)) if layer.use_bias else None
            return T.dense(h, weight, bias)
        if kind == "Conv2d":
            return self.conv(layer, h)
        if kind == "BatchNorm2d":
            return self.norm(layer, h)
        if kind == "BasicBlock":
            return self.block(layer, h)
        if kind == "ReLU":
            return T.relu(h)
        if kind == "MaxPool2d":
            return T.max_pool(h, layer.kernel_size, layer.stride)
        if kind == "GlobalAvgPool2d":
            return T.global_avg_pool(h)
        if kind == "Flatten":
            return T.flatten(h)
        raise NotImplementedError(kind)


def _tape_row(model, params, x, y):
    """``(loss, flat gradient, batch-norm stats)`` of one row."""
    row = _Row(params)
    logits = row.layer(model.module, row.tape.leaf(x))
    if type(model.loss_fn).__name__ == "MSELoss":
        loss = T.mse(logits, y)
    else:
        loss = T.softmax_cross_entropy(logits, y)
    assert row._cursor == params.size, "the tape left parameters unread"
    grads = row.tape.grad(loss, row.leaves)
    grad = np.concatenate([g.ravel() for g in grads])
    return float(loss.value), grad, row.stats


def _loop_reference(model, params, xs, ys):
    """The tape oracle in a loop over rows: stacked grads and losses."""
    grads = np.empty_like(params)
    losses = np.empty(params.shape[0])
    for row in range(params.shape[0]):
        losses[row], grads[row], _ = _tape_row(
            model, params[row], xs[row], ys[row]
        )
    return grads, losses


def assert_matches(got_grads, got_losses, want_grads, want_losses):
    scale = np.abs(want_grads).max()
    np.testing.assert_allclose(got_losses, want_losses, rtol=1e-10, atol=0)
    np.testing.assert_allclose(
        got_grads, want_grads, rtol=1e-10, atol=1e-10 * scale
    )


def _bn_layers(model):
    return [
        layer
        for layer in model.module.modules()
        if isinstance(layer, BatchNorm2d)
    ]


def _expected_buffers(model, before, params, xs, ys):
    """Textbook moving averages of every row's batch statistics."""
    stats = [_tape_row(model, params[r], xs[r], ys[r])[2] for r in range(len(xs))]
    expected = []
    for layer, snapshot in zip(_bn_layers(model), before):
        mean, var = snapshot["running_mean"].copy(), snapshot["running_var"].copy()
        m = MOMENTUM
        for row_stats in stats:
            batch_mean, batch_var, count = row_stats[id(layer)]
            mean = (1 - m) * mean + m * batch_mean
            var = (1 - m) * var + m * batch_var * count / (count - 1)
        expected.append((mean, var))
    return expected


# ----------------------------------------------------------------------
# Tabular zoo
# ----------------------------------------------------------------------
def _model_zoo():
    """(name, SupervisedModel) cases covering the matrix."""
    return [
        ("logistic", make_logistic_regression(FEATURES, CLASSES, rng=0)),
        ("linear_mse", make_linear_regression(FEATURES, CLASSES, rng=1)),
        ("mlp_relu", make_mlp(FEATURES, (8,), CLASSES, rng=2)),
        (
            "mlp_mse",
            SupervisedModel(
                Sequential(
                    Dense(FEATURES, 8, rng=5), ReLU(), Dense(8, CLASSES, rng=6)
                ),
                MSELoss(),
            ),
        ),
    ]


def _stacked_inputs(rng):
    xs = rng.normal(size=(NUM_WORKERS, BATCH, FEATURES))
    ys = rng.integers(0, CLASSES, size=(NUM_WORKERS, BATCH))
    return xs, ys


@pytest.mark.parametrize(
    "case", _model_zoo(), ids=lambda case: case[0]
)
def test_batched_matches_loop_oracle(case):
    """Gradients and losses agree with the tape across the model zoo."""
    _, model = case

    rng = np.random.default_rng(11)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(
        size=(NUM_WORKERS, model.num_params), scale=0.7
    )

    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert_matches(grads, losses, *_loop_reference(model, params, xs, ys))


def test_batched_row_subset_matches_loop():
    """A fault-masked row subset agrees row for row with the tape."""
    model = make_mlp(FEATURES, (8,), CLASSES, rng=9)
    rng = np.random.default_rng(21)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    rows = np.array([0, 2, 4])

    grads = np.empty((rows.size, model.num_params))
    losses = model.gradient_all(params[rows], xs[rows], ys[rows], grads)
    assert_matches(
        grads, losses,
        *_loop_reference(model, params[rows], xs[rows], ys[rows]),
    )


def test_batched_nan_loss_rows_get_nan_gradients():
    """A row whose batch loss overflows gets an all-NaN gradient."""
    model = make_logistic_regression(FEATURES, CLASSES, rng=3)
    model.loss_fn = MSELoss()  # unbounded loss so huge params overflow
    rng = np.random.default_rng(33)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    params[1] = 1e200  # finite but loss overflows to inf

    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert not np.isfinite(losses[1])
    assert np.isnan(grads[1]).all()
    finite = [0, 2, 3, 4]
    assert_matches(
        grads[finite], losses[finite],
        *_loop_reference(model, params[finite], xs[finite], ys[finite]),
    )


# ----------------------------------------------------------------------
# Image zoo: conv / pool / norm layers
# ----------------------------------------------------------------------
IMAGE_SIZE = 8
IMAGE_BATCH = 6
IMAGE_WORKERS = 4


def _custom_conv_model():
    """Stride-2 unpadded conv + BatchNorm2d + MaxPool2d, off the zoo path."""
    return SupervisedModel(
        Sequential(
            Conv2d(1, 3, 3, stride=2, padding=0, rng=30),
            BatchNorm2d(3),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(3, CLASSES, rng=31),
        )
    )


def _pool_model(kernel, stride):
    """A conv whose pooling windows overlap (stride < kernel) or leave
    gaps (stride > kernel)."""
    out = (IMAGE_SIZE - kernel) // stride + 1
    return lambda: SupervisedModel(
        Sequential(
            Conv2d(1, 2, 3, padding=1, rng=32),
            MaxPool2d(kernel, stride),
            Flatten(),
            Dense(2 * out * out, CLASSES, rng=33),
        )
    )


def _image_zoo():
    """(name, model factory) for the image battery."""
    return [
        ("cnn", lambda: make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=20)),
        ("vgg16", lambda: make_vgg("vgg16", 1, IMAGE_SIZE, CLASSES, width_multiplier=1 / 16, rng=22)),
        ("resnet18", lambda: make_resnet("resnet18", 1, CLASSES, width_multiplier=1 / 16, rng=23)),
        ("conv_stride_bn_pool", _custom_conv_model),
        ("maxpool_k2s1", _pool_model(2, 1)),
        ("maxpool_k3s1", _pool_model(3, 1)),
        ("maxpool_k3s2", _pool_model(3, 2)),
        ("maxpool_k2s3", _pool_model(2, 3)),
    ]


def _image_inputs(rng, tabular, num_workers=IMAGE_WORKERS):
    if tabular:
        xs = rng.normal(size=(num_workers, IMAGE_BATCH, FEATURES))
    else:
        xs = rng.normal(
            size=(num_workers, IMAGE_BATCH, 1, IMAGE_SIZE, IMAGE_SIZE)
        )
    ys = rng.integers(0, CLASSES, size=(num_workers, IMAGE_BATCH))
    return xs, ys


@pytest.mark.parametrize("rows", [None, (0, 2, 3)], ids=["all", "masked"])
@pytest.mark.parametrize(
    "case", _image_zoo(), ids=lambda case: case[0]
)
def test_image_zoo_matches_loop_oracle(case, rows):
    """Conv/pool/norm models agree with the tape, train-mode batch norm
    included, and the running buffers hold the textbook moving averages
    of the rows' batch statistics, folded in row order."""
    _, factory = case
    model = factory()

    rng = np.random.default_rng(55)
    xs, ys = _image_inputs(rng, tabular=False)
    params = rng.normal(
        size=(IMAGE_WORKERS, model.num_params), scale=0.4
    )
    if rows is not None:
        rows = np.array(rows)
        params, xs, ys = params[rows], xs[rows], ys[rows]

    before = [layer.get_buffers() for layer in _bn_layers(model)]
    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert_matches(grads, losses, *_loop_reference(model, params, xs, ys))
    expected = _expected_buffers(model, before, params, xs, ys)
    for layer, (mean, var) in zip(_bn_layers(model), expected):
        np.testing.assert_allclose(layer.running_mean, mean, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(layer.running_var, var, rtol=1e-10, atol=1e-14)


def test_cnn_nan_loss_rows_get_nan_gradients():
    """Conv path honors the divergence contract: inf loss => NaN row."""
    model = make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=24)
    model.loss_fn = MSELoss()  # unbounded loss so huge params overflow
    rng = np.random.default_rng(66)
    xs, ys = _image_inputs(rng, tabular=False)
    params = rng.normal(size=(IMAGE_WORKERS, model.num_params), scale=0.4)
    params[2] = 1e200  # finite but the loss overflows to inf

    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert not np.isfinite(losses[2])
    assert np.isnan(grads[2]).all()
    finite = [0, 1, 3]
    assert_matches(
        grads[finite], losses[finite],
        *_loop_reference(model, params[finite], xs[finite], ys[finite]),
    )


# ----------------------------------------------------------------------
# The Table II zoo x masked rows x NaN-loss rows
# ----------------------------------------------------------------------
def _table_zoo():
    """(name, factory, tabular?): the models the oracle must cover."""
    return [
        ("logistic", lambda: make_logistic_regression(FEATURES, CLASSES, rng=40), True),
        ("linear_mse", lambda: make_linear_regression(FEATURES, CLASSES, rng=41), True),
        ("mlp", lambda: make_mlp(FEATURES, (8, 6), CLASSES, rng=42), True),
        ("cnn", lambda: make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=43), False),
        ("vgg16", lambda: make_vgg("vgg16", 1, IMAGE_SIZE, CLASSES, width_multiplier=1 / 16, rng=44), False),
        ("resnet18", lambda: make_resnet("resnet18", 1, CLASSES, width_multiplier=1 / 16, rng=45), False),
    ]


@pytest.mark.parametrize("rows", ["all", "masked"])
@pytest.mark.parametrize("case", _table_zoo(), ids=lambda case: case[0])
def test_zoo_matches_tape(case, rows):
    """Every row but the NaN-loss one matches the tape; that one gets an
    all-NaN gradient and a non-finite loss."""
    _, factory, tabular = case
    model = factory()
    rng = np.random.default_rng(77)
    xs, ys = _image_inputs(rng, tabular)
    params = model.get_flat_params() + rng.normal(
        size=(IMAGE_WORKERS, model.num_params), scale=0.1
    )
    xs[1] = np.nan  # row 1's loss is NaN
    selected = np.arange(IMAGE_WORKERS) if rows == "all" else np.array([0, 1, 3])
    params, xs, ys = params[selected], xs[selected], ys[selected]

    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert not np.isfinite(losses[1])
    assert np.isnan(grads[1]).all()
    good = [r for r in range(selected.size) if r != 1]
    for r in good:
        loss, grad, _ = _tape_row(model, params[r], xs[r], ys[r])
        assert_matches(grads[r], losses[r], grad, loss)


def test_nonfinite_param_rows_are_skipped():
    """A row with non-finite parameters gets a NaN gradient and loss and
    leaves batch norm's running buffers alone: they hold the moving
    averages of the finite rows only."""
    model = _custom_conv_model()
    rng = np.random.default_rng(88)
    xs, ys = _image_inputs(rng, tabular=False)
    params = rng.normal(size=(IMAGE_WORKERS, model.num_params), scale=0.4)
    params[2, 5] = np.inf
    before = [layer.get_buffers() for layer in _bn_layers(model)]

    grads = np.zeros_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert np.isnan(losses[2]) and np.isnan(grads[2]).all()
    finite = [0, 1, 3]
    assert_matches(
        grads[finite], losses[finite],
        *_loop_reference(model, params[finite], xs[finite], ys[finite]),
    )
    expected = _expected_buffers(
        model, before, params[finite], xs[finite], ys[finite]
    )
    for layer, (mean, var) in zip(_bn_layers(model), expected):
        np.testing.assert_allclose(layer.running_mean, mean, rtol=1e-10)
        np.testing.assert_allclose(layer.running_var, var, rtol=1e-10)


# ----------------------------------------------------------------------
# The first layer computes no input gradient
# ----------------------------------------------------------------------
class _Passthrough:
    """Stand-in for a tracing wrapper: forwards every call to ``inner``."""

    __slots__ = ("inner", "covered")

    def __init__(self, inner):
        self.inner = inner
        self.covered = inner.covered

    def bind(self, params, grads):
        self.inner.bind(params, grads)

    def forward(self, x):
        return self.inner.forward(x)

    def backward(self, grad_output):
        return self.inner.backward(grad_output)


def _wrap(layer):
    """Wrap a program layer the way the e2e benchmark's tracer does:
    blocks get their slots wrapped and are wrapped themselves."""
    if type(layer).__name__ == "BasicBlock":
        for slot in (
            "conv1", "bn1", "relu1", "conv2", "bn2", "relu2",
            "proj_conv", "proj_bn",
        ):
            child = getattr(layer, slot)
            if child is not None:
                setattr(layer, slot, _wrap(child))
    return _Passthrough(layer)


@pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "wrapped"])
@pytest.mark.parametrize(
    "factory,col2im_calls",
    [
        # Two convs; only the second folds an input gradient.
        (lambda: make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=20), 1),
        # Stem + 8 blocks x 2 convs + 3 projections = 20 convs.
        (
            lambda: make_resnet("resnet18", 1, CLASSES, width_multiplier=1 / 16, rng=23),
            19,
        ),
    ],
    ids=["cnn", "resnet18"],
)
def test_first_layer_skips_input_gradient(
    factory, col2im_calls, wrapped, monkeypatch
):
    """The stem conv runs no input-gradient GEMM or col2im, also after
    the program's layers are wrapped, and the gradients still match
    the tape."""
    model = factory()
    if wrapped:
        model.layers[:] = [_wrap(layer) for layer in model.layers]
    calls = []
    real_col2im = conv_module.col2im

    def counted(*args, **kwargs):
        calls.append(args)
        return real_col2im(*args, **kwargs)

    monkeypatch.setattr(conv_module, "col2im", counted)

    rng = np.random.default_rng(77)
    xs, ys = _image_inputs(rng, tabular=False)
    params = rng.normal(size=(IMAGE_WORKERS, model.num_params), scale=0.4)
    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    assert len(calls) == col2im_calls
    assert_matches(grads, losses, *_loop_reference(model, params, xs, ys))


@pytest.mark.parametrize(
    "module,flags",
    [
        (make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=0).module,
         [False, True, True, True]),
        (make_mlp(FEATURES, (8,), CLASSES, rng=0).module, [False, True]),
        (Dense(FEATURES, CLASSES, rng=0), [False]),
        # A parameterless first layer leaves every Dense computing it.
        (Sequential(Flatten(), Dense(FEATURES, CLASSES, rng=0)), [True]),
    ],
    ids=["cnn", "mlp", "bare_dense", "flatten_first"],
)
def test_only_a_leading_conv_or_dense_skips_input_gradient(module, flags):
    model = SupervisedModel(module)
    got = [
        layer.needs_input_grad
        for layer in model.layers
        if isinstance(layer, (Conv2d, Dense))
    ]
    assert got == flags


# ----------------------------------------------------------------------
# Building the program
# ----------------------------------------------------------------------
def _lowers(model) -> bool:
    """The model's program layers take every parameter column once."""
    return sum(layer.covered for layer in model.layers) == model.num_params


def test_conv_model_lowers():
    assert _lowers(make_cnn(1, 8, 5, rng=0))


def test_batchnorm_model_lowers():
    model = SupervisedModel(
        Sequential(
            Conv2d(1, 2, 3, rng=0), BatchNorm2d(2), Flatten(),
            Dense(2 * 6 * 6, 2, rng=1),
        )
    )
    assert _lowers(model)


class _Scale(Module):
    """A custom layer: one learned scale per feature."""

    def __init__(self, features):
        super().__init__()
        self.scale = Parameter(np.ones(features), "scale")

    def bind(self, params, grads):
        self._s, self._g = params, grads

    def forward(self, x):
        self._x = x
        return x * self._s[:, None, :]

    def backward(self, grad_output):
        self._g[:] = (grad_output * self._x).sum(axis=1)
        return grad_output * self._s[:, None, :]


class _Halved(MSELoss):
    """A custom loss: half the mean squared error."""

    def forward(self, predictions, targets):
        return 0.5 * super().forward(predictions, targets)

    def backward(self):
        return 0.5 * super().backward()


def test_custom_layer_and_loss_run_in_the_program():
    """A user layer that writes the worker-axis API and a user loss run
    in the program like the library's own: each row's gradient equals
    its one-row pass and central differences of its loss."""
    model = SupervisedModel(
        Sequential(Dense(FEATURES, CLASSES, rng=1), _Scale(CLASSES)), _Halved()
    )
    rng = np.random.default_rng(5)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    grads = np.empty_like(params)
    losses = model.gradient_all(params, xs, ys, grads)
    for row in range(NUM_WORKERS):
        grad, loss = model.gradient(xs[row], ys[row], params[row])
        np.testing.assert_array_equal(grads[row], grad)
        assert losses[row] == loss
    eps, row, index = 1e-6, 2, model.num_params - 1  # a scale entry
    plus, minus = params[row].copy(), params[row].copy()
    plus[index] += eps
    minus[index] -= eps
    numeric = (
        model.gradient(xs[row], ys[row], plus)[1]
        - model.gradient(xs[row], ys[row], minus)[1]
    ) / (2 * eps)
    assert grads[row, index] == pytest.approx(numeric, rel=1e-6)


class _OpaqueBody(Module):
    """A module that is not a ``Sequential``: the program runs it as
    one layer, and its ``bind`` hands the columns to its child."""

    def __init__(self):
        super().__init__()
        self.dense = Dense(4, 2, rng=0)

    def forward(self, x):
        return self.dense.forward(x)

    def backward(self, grad_output):
        return self.dense.backward(grad_output)


class _MysteryLayer(Module):
    """A parameter-free custom layer."""

    def forward(self, x):
        return x

    def backward(self, grad_output):
        return grad_output


def _tabular_rows(rng, features=4, classes=2):
    xs = rng.normal(size=(3, 6, features))
    ys = rng.integers(0, classes, size=(3, 6))
    return xs, ys


def _fleet_pass(model, params, xs, ys):
    grads = np.empty_like(params)
    return grads, model.gradient_all(params, xs, ys, grads)


class TestLoweringReasons:
    """Every model builds into the program; nothing is refused."""

    def test_success_has_no_reason(self):
        model = make_mlp(FEATURES, (8,), CLASSES, rng=1)
        assert [type(layer).__name__ for layer in model.layers] == [
            "Dense",
            "ReLU",
            "Dense",
        ]
        assert _lowers(model)

    def test_opaque_module_reason(self):
        """A non-``Sequential`` body runs as the program's one layer and
        gives its inner layer's gradient bit for bit."""
        body = _OpaqueBody()
        model = SupervisedModel(body)
        plain = SupervisedModel(Dense(4, 2, rng=0))
        assert model.layers == [body]
        rng = np.random.default_rng(12)
        xs, ys = _tabular_rows(rng)
        params = rng.normal(size=(3, model.num_params))
        got, got_losses = _fleet_pass(model, params, xs, ys)
        want, want_losses = _fleet_pass(plain, params, xs, ys)
        np.testing.assert_array_equal(got_losses, want_losses)
        np.testing.assert_array_equal(got, want)

    def test_custom_loss_reason(self):
        """A user loss on the worker-axis API runs in the program: half
        the MSE gives exactly half its gradient and loss."""
        rng = np.random.default_rng(13)
        xs, ys = _tabular_rows(rng)
        halved = SupervisedModel(Dense(4, 2, rng=0), _Halved())
        full = SupervisedModel(Dense(4, 2, rng=0), MSELoss())
        params = rng.normal(size=(3, halved.num_params))
        got, got_losses = _fleet_pass(halved, params, xs, ys)
        want, want_losses = _fleet_pass(full, params, xs, ys)
        np.testing.assert_array_equal(got_losses, 0.5 * want_losses)
        np.testing.assert_array_equal(got, 0.5 * want)

    def test_unsupported_layer_reason(self):
        """A parameter-free custom layer takes no columns and runs in
        place: the identity leaves the gradient unchanged."""
        model = SupervisedModel(
            Sequential(Dense(4, 4, rng=0), _MysteryLayer())
        )
        plain = SupervisedModel(Sequential(Dense(4, 4, rng=0)))
        assert _lowers(model)
        rng = np.random.default_rng(14)
        xs, ys = _tabular_rows(rng, classes=4)
        params = rng.normal(size=(3, model.num_params))
        got, got_losses = _fleet_pass(model, params, xs, ys)
        want, want_losses = _fleet_pass(plain, params, xs, ys)
        np.testing.assert_array_equal(got_losses, want_losses)
        np.testing.assert_array_equal(got, want)

    def test_uncovered_params_reason(self):
        """A parameter outside the program's layers would never get a
        gradient, so the model refuses to build and says why."""
        net = Sequential(Dense(4, 2, rng=0))
        net.scale = Parameter(np.ones(2), "scale")
        with pytest.raises(ValueError, match="cover 10 of its 12"):
            SupervisedModel(net)

    def test_failed_lowering_bumps_tracer_counter(self):
        """Building and running a model counts no lowering failure."""
        with telemetry.tracing() as tracer:
            model = make_mlp(4, (4,), 2, rng=0)
            rng = np.random.default_rng(15)
            xs, ys = _tabular_rows(rng)
            params = rng.normal(size=(3, model.num_params))
            _fleet_pass(model, params, xs, ys)
        assert tracer.span_stats["oracle.forward"].count == 1
        assert not [
            key for key in tracer.counters if key.startswith("batched.")
        ]


def test_custom_loss_does_not_lower():
    """A loss without a worker-axis forward fails on the first pass
    with ``NotImplementedError``; no other path hides it."""

    class WeirdLoss(Loss):
        pass

    model = SupervisedModel(Dense(4, 2, rng=0), WeirdLoss())
    xs, ys = _tabular_rows(np.random.default_rng(16))
    params = np.zeros((3, model.num_params))
    with pytest.raises(NotImplementedError):
        _fleet_pass(model, params, xs, ys)


def test_lowering_leaves_model_state_untouched():
    """The program never touches the model's own parameter buffers."""
    model = make_mlp(FEATURES, (8,), CLASSES, rng=13)
    before = model.get_flat_params()
    rng = np.random.default_rng(44)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    grads = np.empty_like(params)
    model.gradient_all(params, xs, ys, grads)
    np.testing.assert_array_equal(model.get_flat_params(), before)
