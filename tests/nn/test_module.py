"""Tests for the Module base system."""

import numpy as np
import pytest

from repro.nn import Dense, ReLU, Sequential, SupervisedModel
from repro.nn.models import (
    make_cnn,
    make_linear_regression,
    make_logistic_regression,
    make_resnet,
    make_vgg,
)
from repro.nn.module import FlatParamBuffer, Module, Parameter
from tests.nn.rows import bind_rows
from tests.utils.flatten import flatten_arrays, unflatten_like

# A plain stack and the five Table II model families, at test size.
LAYOUT_MODELS = {
    "dense_relu_dense": lambda: SupervisedModel(
        Sequential(Dense(3, 4, rng=0), ReLU(), Dense(4, 2, rng=1))
    ),
    "linear": lambda: make_linear_regression(6, 3, rng=0),
    "logistic": lambda: make_logistic_regression(6, 3, rng=1),
    "cnn": lambda: make_cnn(1, 8, 3, width=3, hidden=16, rng=2),
    "vgg16": lambda: make_vgg(
        "vgg16", 1, 8, 3, width_multiplier=1 / 16, rng=3
    ),
    "resnet18": lambda: make_resnet(
        "resnet18", 1, 3, width_multiplier=1 / 16, rng=4
    ),
}


class TestParameter:
    def test_grad_allocated_zero(self):
        """No gradient storage is allocated beside a parameter or its
        flat buffer: gradients live only in the matrix a pass binds."""
        param = Parameter(np.ones((2, 3)))
        assert not hasattr(param, "grad")
        assert not hasattr(Dense(2, 3, rng=0).flat_buffer(), "grad")

    def test_casts_to_float64(self):
        param = Parameter(np.array([1, 2], dtype=np.int32))
        assert param.data.dtype == np.float64

    def test_shape_and_size(self):
        param = Parameter(np.zeros((4, 5)))
        assert param.shape == (4, 5)
        assert param.size == 20


class TestRegistration:
    def test_parameters_collected_in_order(self):
        layer = Dense(3, 2, rng=0)
        params = layer.parameters()
        assert [p.name for p in params] == ["weight", "bias"]

    def test_nested_modules_collected(self):
        net = Sequential(Dense(3, 4, rng=0), ReLU(), Dense(4, 2, rng=1))
        assert len(net.parameters()) == 4
        assert len(net.modules()) >= 4  # container + layers

    def test_no_bias_variant(self):
        layer = Dense(3, 2, bias=False, rng=0)
        assert len(layer.parameters()) == 1


class TestTrainEval:
    def test_mode_propagates(self):
        net = Sequential(Dense(3, 3, rng=0), ReLU())
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())


class TestFlatParams:
    def test_roundtrip(self):
        net = Sequential(Dense(3, 4, rng=0), Dense(4, 2, rng=1))
        flat = net.get_flat_params()
        assert flat.size == net.num_params() == (3 * 4 + 4) + (4 * 2 + 2)
        net.set_flat_params(np.zeros_like(flat))
        assert not net.get_flat_params().any()
        net.set_flat_params(flat)
        assert np.array_equal(net.get_flat_params(), flat)

    def test_set_copies_data(self):
        layer = Dense(2, 2, rng=0)
        source = np.arange(6.0)
        layer.set_flat_params(source)
        source[0] = 99.0
        assert layer.get_flat_params()[0] == 0.0

    def test_wrong_size_raises(self):
        layer = Dense(2, 2, rng=0)
        with pytest.raises(ValueError):
            layer.set_flat_params(np.zeros(3))

    def test_zero_grad(self):
        """Backward writes the bound gradient rows instead of adding to
        them, so nothing needs zeroing: a pass into a dirty matrix gives
        the same gradient as a pass into a clean one."""
        layer = Dense(2, 2, rng=0)
        grads = bind_rows(layer, rows=2)
        x = np.arange(12.0).reshape(2, 3, 2)
        layer.forward(x)
        layer.backward(np.ones((2, 3, 2)))
        clean = grads.copy()
        grads[:] = 7.0
        layer.forward(x)
        layer.backward(np.ones((2, 3, 2)))
        assert clean.any()
        np.testing.assert_array_equal(grads, clean)


class TestFlatParamBuffer:
    def test_parameters_view_shared_storage(self):
        """After buffer creation, param.data views the flat vector."""
        layer = Dense(3, 2, rng=0)
        buffer = layer.flat_buffer()
        assert isinstance(buffer, FlatParamBuffer)
        before = layer.weight.data.copy()
        assert np.array_equal(buffer.data[: before.size], before.ravel())
        # Writing the flat vector is visible through the parameter view...
        buffer.data[0] = 42.0
        assert layer.weight.data[0, 0] == 42.0
        # ...and writing the view is visible in the flat vector.
        layer.weight.data[0, 1] = -7.0
        assert buffer.data[1] == -7.0

    def test_grads_zero_copy(self):
        """Backward writes each row's gradient straight into the bound
        gradient matrix: there is no gradient copy to collect."""
        layer = Dense(2, 2, rng=0)
        grads = bind_rows(layer, rows=2)
        layer.forward(np.ones((2, 3, 2)))
        layer.backward(np.ones((2, 3, 2)))
        assert (grads == 3.0).all()  # each entry sums 3 samples of 1 * 1

    def test_buffer_cached_across_calls(self):
        net = Sequential(Dense(3, 4, rng=0), Dense(4, 2, rng=1))
        assert net.flat_buffer() is net.flat_buffer()
        assert net.parameters() is net.parameters()

    def test_append_invalidates_and_rebuilds(self):
        net = Sequential(Dense(2, 2, rng=0))
        first = net.flat_buffer()
        values = net.get_flat_params()
        net.append(Dense(2, 2, rng=1))
        second = net.flat_buffer()
        assert second is not first
        assert second.dim == first.dim + 6
        # Pre-append parameter values survive the rebind.
        assert np.array_equal(second.data[: first.dim], values)

    def test_child_access_steals_then_parent_rebuilds(self):
        """Flat access on a child rebinds its params; the parent notices
        the stolen binding and rebuilds instead of writing stale storage."""
        child = Dense(2, 2, rng=0)
        net = Sequential(child, Dense(2, 2, rng=1))
        net.set_flat_params(np.arange(12.0))
        child.set_flat_params(np.zeros(6))  # steals child's params
        net.set_flat_params(np.arange(12.0, 24.0))  # must rebuild
        assert np.array_equal(net.get_flat_params(), np.arange(12.0, 24.0))
        assert child.weight.data.ravel()[0] == 12.0

    @pytest.mark.parametrize("name", list(LAYOUT_MODELS))
    def test_layout_matches_flatten_arrays(self, name):
        """The buffer's layout equals the reference concatenation order,
        through nested containers (VGG stages, ResNet blocks) too, and a
        flat write lands in each parameter view where the reference
        split puts it."""
        model = LAYOUT_MODELS[name]()
        params = model.module.parameters()
        reference = flatten_arrays([p.data for p in params])
        assert np.array_equal(model.get_flat_params(), reference)

        values = np.arange(float(model.num_params))
        model.set_flat_params(values)
        parts = unflatten_like(values, [p.data for p in params])
        for param, part in zip(params, parts):
            np.testing.assert_array_equal(param.data, part)

    def test_forward_backward_unchanged_by_buffering(self):
        """Binding a layer to copies of its flat vector computes what
        binding it to its parameters' own values does."""
        x = np.random.default_rng(0).normal(size=(1, 5, 3))
        fresh = Dense(3, 2, rng=7)
        values = np.concatenate([p.data.ravel() for p in fresh.parameters()])
        fresh_grads = np.zeros((1, values.size))
        fresh.bind(values[None], fresh_grads)
        expected = fresh.forward(x)
        buffered = Dense(3, 2, rng=7)
        buffered_grads = bind_rows(buffered)
        assert np.allclose(buffered.forward(x), expected)
        grad_out = np.ones((1, 5, 2))
        assert np.allclose(
            buffered.backward(grad_out), fresh.backward(grad_out)
        )
        assert np.allclose(buffered_grads, fresh_grads)

    def test_bind_splits_columns_in_parameter_order(self):
        """A container hands each child the next block of columns."""
        net = Sequential(Dense(3, 4, rng=0), ReLU(), Dense(4, 2, rng=1))
        params = np.arange(2.0 * net.num_params()).reshape(2, -1)
        net.bind(params, np.zeros_like(params))
        first, last = net.layers[0], net.layers[2]
        assert first.covered == 16 and last.covered == 10
        np.testing.assert_array_equal(
            first._w, params[:, :12].reshape(2, 4, 3)
        )
        np.testing.assert_array_equal(last._b, params[:, 24:])


class TestSequential:
    def test_forward_composition(self):
        first = Dense(2, 3, rng=0)
        second = Dense(3, 1, rng=1)
        net = Sequential(first, second)
        bind_rows(net)
        x = np.random.default_rng(0).normal(size=(1, 5, 2))
        expected = second.forward(first.forward(x))
        assert np.allclose(net.forward(x), expected)

    def test_len_and_getitem(self):
        net = Sequential(Dense(2, 2, rng=0), ReLU())
        assert len(net) == 2
        assert isinstance(net[1], ReLU)

    def test_append_registers_params(self):
        net = Sequential(Dense(2, 2, rng=0))
        before = len(net.parameters())
        net.append(Dense(2, 2, rng=1))
        assert len(net.parameters()) == before + 2

    def test_not_implemented_on_base(self):
        module = Module()
        with pytest.raises(NotImplementedError):
            module.forward(np.zeros(1))
        with pytest.raises(NotImplementedError):
            module.backward(np.zeros(1))
