"""Batched-vs-loop oracle equivalence for the batched gradient engine.

The batched program must be a pure performance change: for every
lowerable model it has to produce the same per-worker gradients and
batch losses the sequential per-worker oracle produces, to floating
point roundoff (rtol 1e-10 here — far tighter than the rtol 1e-8 the
golden trajectories enforce end to end).  Models that cannot lower
must be detected so the federation keeps the loop backend.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

from repro import telemetry
from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    Loss,
    MSELoss,
    ReLU,
    Sequential,
    SupervisedModel,
    Tanh,
)
from repro.nn import batched as batched_module
from repro.nn.batched import BatchedProgram, lower_supervised_model
from repro.nn.models import (
    make_cnn,
    make_linear_regression,
    make_logistic_regression,
    make_mlp,
    make_resnet,
    make_vgg,
)
from repro.nn.module import Module, Parameter
from repro.nn.norm import _BatchNorm

pytestmark = pytest.mark.batched

NUM_WORKERS = 5
BATCH = 12
FEATURES = 9
CLASSES = 4


def _model_zoo():
    """(name, SupervisedModel, weight_decay) cases covering the matrix."""
    return [
        ("logistic", make_logistic_regression(FEATURES, CLASSES, rng=0), 0.0),
        (
            "linear_mse",
            make_linear_regression(FEATURES, CLASSES, rng=1),
            0.0,
        ),
        ("mlp_relu", make_mlp(FEATURES, (8,), CLASSES, rng=2), 0.0),
        (
            "mlp_tanh",
            make_mlp(FEATURES, (7, 6), CLASSES, activation="tanh", rng=3),
            0.0,
        ),
        ("mlp_decay", make_mlp(FEATURES, (8,), CLASSES, rng=4), 0.05),
        (
            "mlp_mse",
            SupervisedModel(
                Sequential(
                    Dense(FEATURES, 8, rng=5), ReLU(), Dense(8, CLASSES, rng=6)
                ),
                MSELoss(),
            ),
            0.0,
        ),
        (
            "linear_decay_mse",
            SupervisedModel(
                Dense(FEATURES, CLASSES, rng=7),
                MSELoss(),
                weight_decay=0.01,
            ),
            None,  # weight decay set in the constructor above
        ),
    ]


def _stacked_inputs(rng):
    xs = rng.normal(size=(NUM_WORKERS, BATCH, FEATURES))
    ys = rng.integers(0, CLASSES, size=(NUM_WORKERS, BATCH))
    return xs, ys


def _loop_reference(model, params, xs, ys):
    """Per-worker oracle results stacked: the ground truth."""
    grads = np.empty_like(params)
    losses = np.empty(params.shape[0])
    for worker in range(params.shape[0]):
        _, losses[worker] = model.gradient(
            xs[worker], ys[worker], params[worker], out=grads[worker]
        )
    return grads, losses


@pytest.mark.parametrize(
    "case", _model_zoo(), ids=lambda case: case[0]
)
def test_batched_matches_loop_oracle(case):
    """Gradients and losses agree at rtol 1e-10 across the model zoo."""
    _, model, weight_decay = case
    if weight_decay is not None:
        model.weight_decay = weight_decay
    program = lower_supervised_model(model)
    assert isinstance(program, BatchedProgram)

    rng = np.random.default_rng(11)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(
        size=(NUM_WORKERS, model.num_params), scale=0.7
    )

    grads = np.empty_like(params)
    losses = program.gradient_all(params, xs, ys, grads)
    ref_grads, ref_losses = _loop_reference(model, params, xs, ys)

    np.testing.assert_allclose(losses, ref_losses, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-10, atol=1e-14)


def test_batched_row_subset_matches_loop():
    """A fault-masked row subset agrees row for row with the loop."""
    model = make_mlp(FEATURES, (8,), CLASSES, rng=9)
    program = lower_supervised_model(model)
    rng = np.random.default_rng(21)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    rows = np.array([0, 2, 4])

    grads = np.empty((rows.size, model.num_params))
    losses = program.gradient_all(params[rows], xs[rows], ys[rows], grads)
    ref_grads, ref_losses = _loop_reference(
        model, params[rows], xs[rows], ys[rows]
    )
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-10, atol=1e-14)


def test_batched_nan_loss_rows_get_nan_gradients():
    """A row whose batch loss overflows mirrors the loop's NaN grad."""
    model = make_logistic_regression(FEATURES, CLASSES, rng=3)
    model.loss_fn = MSELoss()  # unbounded loss so huge params overflow
    program = lower_supervised_model(model)
    rng = np.random.default_rng(33)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    params[1] = 1e200  # finite but loss overflows to inf

    grads = np.empty_like(params)
    losses = program.gradient_all(params, xs, ys, grads)
    assert not np.isfinite(losses[1])
    assert np.isnan(grads[1]).all()
    finite = [0, 2, 3, 4]
    ref_grads, ref_losses = _loop_reference(
        model, params[finite], xs[finite], ys[finite]
    )
    np.testing.assert_allclose(
        losses[finite], ref_losses, rtol=1e-10, atol=1e-14
    )
    np.testing.assert_allclose(
        grads[finite], ref_grads, rtol=1e-10, atol=1e-14
    )


# ----------------------------------------------------------------------
# Image-model zoo: conv / pool / norm lowerings vs the loop oracle
# ----------------------------------------------------------------------
IMAGE_SIZE = 8
IMAGE_BATCH = 6
IMAGE_WORKERS = 4


def _custom_conv_model():
    """Stride-2 unpadded conv + BatchNorm2d + AvgPool2d, off the zoo path."""
    return SupervisedModel(
        Sequential(
            Conv2d(1, 3, 3, stride=2, padding=0, rng=30),
            BatchNorm2d(3),
            ReLU(),
            AvgPool2d(2),
            Flatten(),
            Dense(3, CLASSES, rng=31),
        )
    )


def _mlp_bn_model():
    return SupervisedModel(
        Sequential(
            Dense(FEATURES, 8, rng=32),
            BatchNorm1d(8),
            Tanh(),
            Dense(8, CLASSES, rng=33),
        ),
        weight_decay=0.02,
    )


def _image_zoo():
    """(name, model factory, weight_decay, tabular?) for the image battery."""
    return [
        ("cnn", lambda: make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=20), 0.0, False),
        ("cnn_decay", lambda: make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=21), 0.03, False),
        ("vgg16", lambda: make_vgg("vgg16", 1, IMAGE_SIZE, CLASSES, width_multiplier=1 / 16, rng=22), 0.0, False),
        ("resnet18", lambda: make_resnet("resnet18", 1, CLASSES, width_multiplier=1 / 16, rng=23), 0.0, False),
        ("conv_stride_bn_avgpool", _custom_conv_model, 0.0, False),
        ("mlp_bn1d", _mlp_bn_model, None, True),
    ]


def _bn_layers(model):
    return [
        layer
        for layer in model.module.modules()
        if isinstance(layer, _BatchNorm)
    ]


def _bn_buffers(model):
    return [layer.get_buffers() for layer in _bn_layers(model)]


def _restore_bn_buffers(model, snapshots):
    for layer, snapshot in zip(_bn_layers(model), snapshots):
        layer.set_buffers(snapshot)


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
    """Conv/pool/norm lowerings agree with the loop at rtol 1e-10.

    Batch-norm models also update the *shared* running-stat buffers; the
    batched fold in worker order must leave them exactly where the
    sequential loop does (snapshot before, compare after).
    """
    _, factory, weight_decay, tabular = case
    model = factory()
    if weight_decay is not None:
        model.weight_decay = weight_decay
    program = lower_supervised_model(model)
    assert isinstance(program, BatchedProgram)

    rng = np.random.default_rng(55)
    xs, ys = _image_inputs(rng, tabular)
    params = rng.normal(
        size=(IMAGE_WORKERS, model.num_params), scale=0.4
    )
    if rows is not None:
        rows = np.array(rows)
        params, xs, ys = params[rows], xs[rows], ys[rows]

    snapshot = _bn_buffers(model)
    grads = np.empty_like(params)
    losses = program.gradient_all(params, xs, ys, grads)
    batched_buffers = _bn_buffers(model)

    _restore_bn_buffers(model, snapshot)
    ref_grads, ref_losses = _loop_reference(model, params, xs, ys)
    loop_buffers = _bn_buffers(model)

    np.testing.assert_allclose(losses, ref_losses, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-10, atol=1e-14)
    for got, want in zip(batched_buffers, loop_buffers):
        for key in ("running_mean", "running_var"):
            np.testing.assert_allclose(
                got[key], want[key], rtol=1e-10, atol=1e-14
            )


def test_cnn_nan_loss_rows_get_nan_gradients():
    """Conv path honors the divergence contract: inf loss => NaN row."""
    model = make_cnn(1, IMAGE_SIZE, CLASSES, width=3, hidden=16, rng=24)
    model.loss_fn = MSELoss()  # unbounded loss so huge params overflow
    program = lower_supervised_model(model)
    rng = np.random.default_rng(66)
    xs, ys = _image_inputs(rng, tabular=False)
    params = rng.normal(size=(IMAGE_WORKERS, model.num_params), scale=0.4)
    params[2] = 1e200  # finite but the loss overflows to inf

    grads = np.empty_like(params)
    losses = program.gradient_all(params, xs, ys, grads)
    assert not np.isfinite(losses[2])
    assert np.isnan(grads[2]).all()
    finite = [0, 1, 3]
    ref_grads, ref_losses = _loop_reference(
        model, params[finite], xs[finite], ys[finite]
    )
    np.testing.assert_allclose(
        losses[finite], ref_losses, rtol=1e-10, atol=1e-14
    )
    np.testing.assert_allclose(
        grads[finite], ref_grads, rtol=1e-10, atol=1e-14
    )


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
    """Wrap a lowered layer the way the e2e benchmark's tracer does:
    chains get their children wrapped, blocks get their slots wrapped
    and are wrapped themselves."""
    children = getattr(layer, "layers", None)
    if isinstance(children, list):
        children[:] = [_wrap(child) for child in children]
        return layer
    if isinstance(layer, batched_module._BatchedBasicBlock):
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
    the loop oracle."""
    model = factory()
    program = lower_supervised_model(model)
    if wrapped:
        program.layers[:] = [_wrap(layer) for layer in program.layers]
    calls = []
    real_col2im = batched_module.col2im

    def counted(*args, **kwargs):
        calls.append(args)
        return real_col2im(*args, **kwargs)

    monkeypatch.setattr(batched_module, "col2im", counted)

    rng = np.random.default_rng(77)
    xs, ys = _image_inputs(rng, tabular=False)
    params = rng.normal(size=(IMAGE_WORKERS, model.num_params), scale=0.4)
    grads = np.empty_like(params)
    losses = program.gradient_all(params, xs, ys, grads)
    assert len(calls) == col2im_calls
    ref_grads, ref_losses = _loop_reference(model, params, xs, ys)
    np.testing.assert_allclose(losses, ref_losses, rtol=1e-10, atol=1e-14)
    np.testing.assert_allclose(grads, ref_grads, rtol=1e-10, atol=1e-14)


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
    program = lower_supervised_model(SupervisedModel(module))
    got = [
        layer.needs_input_grad
        for layer in program.layers
        if hasattr(layer, "needs_input_grad")
    ]
    assert got == flags


# ----------------------------------------------------------------------
# Lowering rules
# ----------------------------------------------------------------------
def test_conv_model_lowers():
    assert lower_supervised_model(make_cnn(1, 8, 5, rng=0)) is not None


def test_batchnorm_model_lowers():
    model = SupervisedModel(
        Sequential(Dense(4, 4, rng=0), BatchNorm1d(4), Dense(4, 2, rng=1))
    )
    assert lower_supervised_model(model) is not None


def test_active_dropout_lowers():
    model = SupervisedModel(
        Sequential(Dense(4, 4, rng=0), Dropout(0.3), Dense(4, 2, rng=1))
    )
    assert lower_supervised_model(model) is not None


def test_identity_dropout_lowers():
    model = SupervisedModel(
        Sequential(Dense(4, 4, rng=0), Dropout(0.0), Dense(4, 2, rng=1))
    )
    assert lower_supervised_model(model) is not None


def _shared_rng_dropout_model() -> SupervisedModel:
    """Two live dropout layers on one generator (refuses to lower)."""
    rng = np.random.default_rng(5)
    return SupervisedModel(
        Sequential(
            Dense(4, 4, rng=0),
            Dropout(0.3, rng=rng),
            Dense(4, 4, rng=1),
            Dropout(0.3, rng=rng),
            Dense(4, 2, rng=2),
        )
    )


def test_shared_rng_dropout_does_not_lower():
    """One generator across live dropout layers cannot replay the
    loop's worker-major draw order layer by layer."""
    assert lower_supervised_model(_shared_rng_dropout_model()) is None


def _dropout_model(seed: int = 7) -> SupervisedModel:
    """MLP with a live dropout layer owning a seeded generator."""
    return SupervisedModel(
        Sequential(
            Dense(FEATURES, 8, rng=0),
            ReLU(),
            Dropout(0.4, rng=seed),
            Dense(8, CLASSES, rng=1),
        )
    )


def test_batched_dropout_matches_loop_oracle():
    """Dropout masks replay the loop's per-worker stream bit for bit:
    gradients and losses agree at rtol 1e-10 (two identically seeded
    model instances, since each arm consumes its own generator)."""
    loop_model = _dropout_model()
    batched_model = _dropout_model()
    program = lower_supervised_model(batched_model)
    assert isinstance(program, BatchedProgram)

    rng = np.random.default_rng(17)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, loop_model.num_params))

    for _ in range(3):  # repeated passes keep the streams aligned
        grads = np.empty_like(params)
        losses = program.gradient_all(params, xs, ys, grads)
        ref_grads, ref_losses = _loop_reference(loop_model, params, xs, ys)
        np.testing.assert_allclose(
            losses, ref_losses, rtol=1e-10, atol=1e-14
        )
        np.testing.assert_allclose(
            grads, ref_grads, rtol=1e-10, atol=1e-14
        )


def test_batched_dropout_consumes_original_layer_stream():
    """The lowered layer draws from the *original* model's generator,
    so checkpointed dropout RNG state stays backend-agnostic."""
    model = _dropout_model()
    layer = next(
        child
        for child in model.module.modules()
        if isinstance(child, Dropout)
    )
    before = layer.rng.bit_generator.state["state"]["state"]
    program = lower_supervised_model(model)
    rng = np.random.default_rng(23)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    program.gradient_all(params, xs, ys, np.empty_like(params))
    assert layer.rng.bit_generator.state["state"]["state"] != before


def test_custom_loss_does_not_lower():
    class WeirdLoss(Loss):
        pass

    model = SupervisedModel(Dense(4, 2, rng=0), WeirdLoss())
    assert lower_supervised_model(model) is None


def test_lowering_leaves_model_state_untouched():
    """The program never touches the model's own parameter buffers."""
    model = make_mlp(FEATURES, (8,), CLASSES, rng=13)
    before = model.get_flat_params()
    program = lower_supervised_model(model)
    rng = np.random.default_rng(44)
    xs, ys = _stacked_inputs(rng)
    params = rng.normal(size=(NUM_WORKERS, model.num_params))
    grads = np.empty_like(params)
    program.gradient_all(params, xs, ys, grads)
    np.testing.assert_array_equal(model.get_flat_params(), before)


# ----------------------------------------------------------------------
# Fallback reasons: explain=True, tracer counters, one-time debug log
# ----------------------------------------------------------------------
class _OpaqueBody(Module):
    """A module the structural walk cannot see into."""

    def __init__(self):
        super().__init__()
        self.dense = Dense(4, 2, rng=0)

    def forward(self, x):
        return self.dense.forward(x)

    def backward(self, grad_output):
        return self.dense.backward(grad_output)


class _PartialStackBody(Module):
    """Exposes a batched_stack that misses one of its parameters."""

    def __init__(self):
        super().__init__()
        self.dense = Dense(4, 2, rng=0)
        self.scale = Parameter(np.ones(2), "scale")

    def batched_stack(self):
        return [self.dense]

    def forward(self, x):
        return self.dense.forward(x) * self.scale.data

    def backward(self, grad_output):
        raise NotImplementedError


class _MysteryLayer(Module):
    def forward(self, x):
        return x

    def backward(self, grad_output):
        return grad_output


class TestLoweringReasons:
    def test_success_has_no_reason(self):
        program, reason = lower_supervised_model(
            make_mlp(FEATURES, (8,), CLASSES, rng=1), explain=True
        )
        assert isinstance(program, BatchedProgram)
        assert reason is None

    def test_opaque_module_reason(self):
        program, reason = lower_supervised_model(
            SupervisedModel(_OpaqueBody()), explain=True
        )
        assert program is None
        assert reason == "module:_OpaqueBody"

    def test_custom_loss_reason(self):
        class WeirdLoss(Loss):
            pass

        program, reason = lower_supervised_model(
            SupervisedModel(Dense(4, 2, rng=0), WeirdLoss()), explain=True
        )
        assert program is None
        assert reason == "loss:WeirdLoss"

    def test_unsupported_layer_reason(self):
        model = SupervisedModel(
            Sequential(Dense(4, 4, rng=0), _MysteryLayer())
        )
        program, reason = lower_supervised_model(model, explain=True)
        assert program is None
        assert reason == "layer:_MysteryLayer"

    def test_shared_rng_dropout_reason(self):
        program, reason = lower_supervised_model(
            _shared_rng_dropout_model(), explain=True
        )
        assert program is None
        assert reason == "layer:Dropout(shared-rng)"

    def test_uncovered_params_reason(self):
        program, reason = lower_supervised_model(
            SupervisedModel(_PartialStackBody()), explain=True
        )
        assert program is None
        assert reason == "params:uncovered"

    def test_failed_lowering_bumps_tracer_counter(self):
        model = _shared_rng_dropout_model()
        with telemetry.tracing() as tracer:
            assert lower_supervised_model(model) is None
            assert lower_supervised_model(model) is None
        assert (
            tracer.counters.get(
                "batched.lower.unsupported.layer:Dropout(shared-rng)"
            )
            == 2
        )

    def test_fallback_logged_once_per_model_shape(self, caplog):
        model = _shared_rng_dropout_model()
        batched_module._logged_reasons.clear()
        with caplog.at_level(logging.DEBUG, logger="repro.nn.batched"):
            lower_supervised_model(model)
            lower_supervised_model(model)  # second miss stays silent
        records = [
            record
            for record in caplog.records
            if "batched lowering unsupported" in record.message
        ]
        assert len(records) == 1
        assert "layer:Dropout(shared-rng)" in records[0].getMessage()
