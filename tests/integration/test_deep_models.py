"""Integration: the conv model families run end-to-end through HierAdMo.

Short federated runs with the scaled VGG and ResNet — these execute
every substrate feature at once (conv, pooling, batch norm in train
mode with FL parameter swapping, residual adds, flat-vector
aggregation, adaptive momentum).
"""

import numpy as np
import pytest

from repro.core import Federation, HierAdMo
from repro.data import make_synthetic_cifar10, partition_xclass, train_test_split
from repro.nn.models import make_resnet, make_vgg


@pytest.fixture(scope="module")
def cifar_split():
    corpus = make_synthetic_cifar10(300, image_size=8, rng=0)
    return train_test_split(corpus, 0.25, rng=1)


def federation_for(model, cifar_split):
    train, test = cifar_split
    parts = partition_xclass(train, 4, 5, rng=2)
    return Federation(
        model, [parts[:2], parts[2:]], test, batch_size=8, seed=3
    )


class TestDeepModelsEndToEnd:
    def test_vgg_federated_run(self, cifar_split):
        model = make_vgg("vgg11", 3, 8, 10, width_multiplier=1 / 16, rng=4)
        fed = federation_for(model, cifar_split)
        history = HierAdMo(fed, eta=0.02, tau=3, pi=2).run(
            12, eval_every=6
        )
        assert len(history.test_accuracy) >= 2
        assert np.isfinite(history.test_loss).all()

    def test_resnet_federated_run(self, cifar_split):
        model = make_resnet("resnet10", 3, 10, width_multiplier=1 / 16,
                            rng=5)
        fed = federation_for(model, cifar_split)
        history = HierAdMo(fed, eta=0.02, tau=3, pi=2).run(
            12, eval_every=6
        )
        assert np.isfinite(history.test_loss).all()
        assert history.comm.worker_edge_rounds == 4

    def test_batchnorm_models_stay_finite_under_param_swapping(
        self, cifar_split
    ):
        """FL sets parameters before each use; batch-norm running stats
        are shared across workers through the single oracle.  The run
        must stay numerically healthy regardless."""
        model = make_resnet("resnet10", 3, 10, width_multiplier=1 / 16,
                            rng=6)
        fed = federation_for(model, cifar_split)
        algo = HierAdMo(fed, eta=0.05, tau=2, pi=2)
        history = algo.run(8, eval_every=4)
        for params in algo.x:
            assert np.isfinite(params).all()
