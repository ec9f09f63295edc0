"""Tests for the model zoo (shapes, determinism, known parameter counts)."""

import numpy as np
import pytest

from repro.nn.models import (
    RESNET_LAYOUTS,
    VGG_CONFIGS,
    make_cnn,
    make_linear_regression,
    make_logistic_regression,
    make_resnet,
    make_vgg,
)

RNG = np.random.default_rng(7)


class TestConvexModels:
    def test_linear_output_shape(self):
        model = make_linear_regression(20, 10, rng=0)
        out = model.predict(RNG.normal(size=(5, 20)))
        assert out.shape == (5, 10)

    def test_logistic_gradient_runs(self):
        model = make_logistic_regression(20, 10, rng=0)
        grad, loss = model.gradient(
            RNG.normal(size=(8, 20)), RNG.integers(0, 10, 8)
        )
        assert grad.shape == (model.num_params,)
        assert loss > 0

    def test_linear_uses_mse(self):
        from repro.nn.losses import MSELoss

        model = make_linear_regression(4, 3, rng=0)
        assert isinstance(model.loss_fn, MSELoss)

    def test_deterministic_init(self):
        a = make_logistic_regression(10, 5, rng=3).get_flat_params()
        b = make_logistic_regression(10, 5, rng=3).get_flat_params()
        assert np.array_equal(a, b)


class TestCnn:
    def test_output_shape(self):
        model = make_cnn(1, 10, 10, width=4, hidden=16, rng=0)
        out = model.predict(RNG.normal(size=(3, 1, 10, 10)))
        assert out.shape == (3, 10)

    def test_rgb_input(self):
        model = make_cnn(3, 12, 10, width=4, hidden=16, rng=0)
        out = model.predict(RNG.normal(size=(2, 3, 12, 12)))
        assert out.shape == (2, 10)

    def test_tiny_image(self):
        model = make_cnn(1, 4, 5, width=2, hidden=8, rng=0)
        out = model.predict(RNG.normal(size=(2, 1, 4, 4)))
        assert out.shape == (2, 5)

    def test_width_scales_params(self):
        small = make_cnn(1, 8, 10, width=4, rng=0).num_params
        large = make_cnn(1, 8, 10, width=8, rng=0).num_params
        assert large > small


class TestVgg:
    def test_all_configs_build(self):
        for config in VGG_CONFIGS:
            model = make_vgg(config, 3, 8, 10, width_multiplier=1 / 16, rng=0)
            out = model.predict(RNG.normal(size=(2, 3, 8, 8)))
            assert out.shape == (2, 10)

    def test_unknown_config_raises(self):
        with pytest.raises(ValueError, match="unknown VGG"):
            make_vgg("vgg99", 3, 8, 10, rng=0)

    def test_invalid_multiplier_raises(self):
        with pytest.raises(ValueError):
            make_vgg("vgg16", 3, 8, 10, width_multiplier=0, rng=0)

    def test_vgg16_conv_count(self):
        model = make_vgg(
            "vgg16", 3, 32, 10, width_multiplier=1 / 16, rng=0
        )
        from repro.nn.conv import Conv2d

        convs = [m for m in model.module.modules() if isinstance(m, Conv2d)]
        assert len(convs) == 13  # VGG16 = 13 conv + 3 dense (we use 2 dense)

    def test_no_batchnorm_option(self):
        from repro.nn.norm import BatchNorm2d

        model = make_vgg(
            "vgg11", 3, 8, 10, width_multiplier=1 / 16,
            batch_norm=False, rng=0,
        )
        norms = [
            m for m in model.module.modules() if isinstance(m, BatchNorm2d)
        ]
        assert not norms


class TestResnet:
    def test_all_layouts_build(self):
        for layout in RESNET_LAYOUTS:
            model = make_resnet(layout, 3, 10, width_multiplier=1 / 16, rng=0)
            out = model.predict(RNG.normal(size=(2, 3, 8, 8)))
            assert out.shape == (2, 10)

    def test_resnet18_full_param_count(self):
        """Full-width ResNet18 matches torchvision's 11.17M parameters."""
        model = make_resnet("resnet18", 3, 10, rng=0)
        # torchvision resnet18 (CIFAR variant, 3x3 stem, 10 classes):
        # 11,173,962 parameters.
        assert model.num_params == 11_173_962

    def test_unknown_layout_raises(self):
        with pytest.raises(ValueError, match="unknown layout"):
            make_resnet("resnet99", 3, 10, rng=0)

    def test_gradient_flows_through_blocks(self):
        model = make_resnet("resnet10", 3, 4, width_multiplier=1 / 16, rng=0)
        grad, _ = model.gradient(
            RNG.normal(size=(2, 3, 8, 8)), RNG.integers(0, 4, 2)
        )
        # A healthy fraction of parameters receives gradient signal (dead
        # ReLU units make full coverage impossible at this tiny width).
        assert np.count_nonzero(grad) > 0.2 * grad.size

    def test_projection_blocks_created_on_downsample(self):
        from repro.nn.models.resnet import BasicBlock

        model = make_resnet("resnet18", 3, 10, width_multiplier=1 / 8, rng=0)
        blocks = [
            m for m in model.module.modules() if isinstance(m, BasicBlock)
        ]
        assert len(blocks) == 8
        assert sum(block.proj_conv is not None for block in blocks) == 3
