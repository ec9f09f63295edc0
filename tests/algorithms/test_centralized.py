"""Centralized training is the one-worker federation.

FedNAG with one worker is centralized NAG (Yang et al., arXiv:2009.08716),
and FedAvg with one worker, like HierFAVG with one edge and one worker,
is mini-batch SGD (Liu et al., arXiv:1905.06641): every aggregate is one
model at weight 1, which is that model bit for bit.  So the library has
no centralized trainer.  Its centralized reference is
``run_single("FedNAG", config.with_overrides(num_edges=1,
workers_per_edge=1, scheme="iid"))``.

:class:`TestOneWorkerIsCentralized` pins the reduction against a loop
written out here that shares no schedule, store or update code with the
algorithms: the :class:`~tests.data.sampler.BatchSampler` oracle on
worker 0's stream ``child_seed(seed, "sampler", 0)``, the model's
gradient, and the NAG rule (γ = 0 for SGD).
"""

import functools
import math

import numpy as np
import pytest

from repro.algorithms import FedAvg, FedNAG
from repro.core import Federation
from repro.data import make_synthetic_mnist, partition_xclass, train_test_split
from repro.experiments import ExperimentConfig, run_single
from repro.experiments.builders import (
    build_algorithm,
    build_datasets,
    build_federation,
    build_model,
)
from repro.nn.models import make_logistic_regression
from repro.utils.rng import child_seed
from tests.data.sampler import BatchSampler

T, EVAL_EVERY = 60, 10
ONE_WORKER = ExperimentConfig(
    num_edges=1, workers_per_edge=1, scheme="iid", eta=0.05, gamma=0.5,
    tau=3, pi=2, batch_size=16, total_iterations=T, eval_every=EVAL_EVERY,
    seed=3,
)
CONFIGS = {
    "logistic": ONE_WORKER.with_overrides(model="logistic", num_samples=400),
    "cnn": ONE_WORKER.with_overrides(model="cnn", num_samples=200),
}
# Each algorithm with the γ of the centralized rule it reduces to.
RULES = [("FedNAG", 0.5), ("FedAvg", 0.0), ("HierFAVG", 0.0)]
CASES = [
    pytest.param(model, name, gamma, id=f"{model}-{name}")
    for model in CONFIGS
    for name, gamma in RULES
]


@functools.cache
def hand_loop(model_name: str, gamma: float):
    """Centralized NAG on the config's pooled training split.

    Returns the parameters after each of the ``T`` steps, each step's
    batch loss, and ``(accuracy, test loss)`` at every evaluation
    point, iteration 0 included.
    """
    config = CONFIGS[model_name]
    ((train,),), test = build_datasets(config)
    model = build_model(config, test)
    sampler = BatchSampler(
        train,
        config.batch_size,
        np.random.default_rng(child_seed(config.seed, "sampler", 0)),
    )
    x = model.get_flat_params()
    y = x.copy()
    params, losses, evals = [], [], []
    for t in range(T + 1):
        if t % EVAL_EVERY == 0:
            model.set_flat_params(x)
            evals.append(model.evaluate(test.x, test.y))
        if t == T:
            break
        batch_x, batch_y = sampler.next_batch()
        grad, loss = model.gradient(batch_x, batch_y, x)
        y_new = x - config.eta * grad
        x = y_new + gamma * (y_new - y)
        y = y_new
        params.append(x)
        losses.append(loss)
    return np.array(params), np.array(losses), np.array(evals)


def one_worker_trajectory(model_name: str, name: str, **overrides):
    """Worker 0's parameters after each step of the built algorithm."""
    config = CONFIGS[model_name].with_overrides(**overrides)
    federation = build_federation(config)
    algorithm = build_algorithm(name, federation, config)
    algorithm.history = federation.new_history(name, {})
    algorithm._setup()
    trajectory = []
    for t in range(1, T + 1):
        algorithm._step(t)
        trajectory.append(algorithm.x[0].copy())
    return np.array(trajectory)


class TestOneWorkerIsCentralized:
    @pytest.mark.parametrize("model_name, name, gamma", CASES)
    def test_trajectory_is_the_hand_loop(self, model_name, name, gamma):
        params, _, _ = hand_loop(model_name, gamma)
        assert np.array_equal(
            one_worker_trajectory(model_name, name), params
        )

    @pytest.mark.parametrize("model_name, name, gamma", CASES)
    def test_run_history_is_the_hand_loop(self, model_name, name, gamma):
        """``run_single``'s evaluations and train-loss windows."""
        _, losses, evals = hand_loop(model_name, gamma)
        history = run_single(name, CONFIGS[model_name])
        windows = losses.reshape(-1, EVAL_EVERY)
        train_loss = [float("nan")] + [sum(w) / EVAL_EVERY for w in windows]
        assert history.iterations == list(range(0, T + 1, EVAL_EVERY))
        assert np.array_equal(history.test_accuracy, evals[:, 0])
        assert np.array_equal(history.test_loss, evals[:, 1])
        assert np.array_equal(history.train_loss, train_loss, equal_nan=True)

    def test_momentum_moves_the_trajectory(self):
        """The comparison can tell NAG from SGD: FedNAG's trajectory is
        not the γ = 0 loop's."""
        params, _, _ = hand_loop("logistic", 0.0)
        trajectory = one_worker_trajectory("logistic", "FedNAG")
        assert not np.array_equal(trajectory[0], params[0])

    def test_gamma_zero_equals_sgd(self):
        """FedNAG at γ = 0 is FedAvg's SGD step, bit for bit."""
        for model_name in CONFIGS:
            assert np.array_equal(
                one_worker_trajectory(model_name, "FedNAG", gamma=0.0),
                one_worker_trajectory(model_name, "FedAvg"),
            )

    def test_matches_hieradmo_worker_update(self):
        """HierAdMo's worker rule (Alg. 1 lines 5-6) is the NAG loop: with
        no edge round inside the run (τ > T) its one worker follows the
        hand loop bit for bit."""
        for model_name in CONFIGS:
            params, _, _ = hand_loop(model_name, ONE_WORKER.gamma)
            trajectory = one_worker_trajectory(
                model_name, "HierAdMo", tau=T + 1
            )
            assert np.array_equal(trajectory, params)


@pytest.fixture(scope="module")
def split():
    corpus = make_synthetic_mnist(600, rng=0).flattened()
    return train_test_split(corpus, 0.25, rng=1)


def one_worker(split, cls, eta=0.02, **kwargs):
    """``cls`` on a one-worker federation over the pooled training split."""
    train, test = split
    model = make_logistic_regression(train.num_features, 10, rng=2)
    federation = Federation(model, [[train]], test, batch_size=32, seed=6)
    return cls(federation, eta=eta, tau=10, **kwargs)


class TestCentralizedReference:
    def test_learns(self, split):
        history = one_worker(split, FedAvg, eta=0.05).run(150, eval_every=50)
        assert history.final_accuracy > 0.8
        assert math.isnan(history.train_loss[0])  # t=0 has no train loss

    def test_schedule_applied(self, split):
        """An ``eta_schedule`` sets the η of every step."""
        plain = one_worker(split, FedAvg, eta=0.05).run(30, eval_every=30)
        algorithm = one_worker(split, FedAvg, eta=999.0)  # overwritten
        algorithm.eta_schedule = lambda t: 0.05
        history = algorithm.run(30, eval_every=30)
        assert algorithm.eta == 0.05
        assert history.test_loss == plain.test_loss
        assert history.final_accuracy > 0.1

    def test_model_holds_final_params(self, split):
        """After a run the federation's model holds the final global
        model, whose accuracy is the history's last record."""
        _, test = split
        algorithm = one_worker(split, FedAvg, eta=0.05)
        history = algorithm.run(30, eval_every=30)
        model = algorithm.fed.model
        assert np.array_equal(model.get_flat_params(), algorithm.x[0])
        assert model.evaluate(test.x, test.y)[0] == history.final_accuracy

    def test_history_algorithm_tag(self, split):
        history = one_worker(split, FedAvg, eta=0.05).run(10, eval_every=10)
        assert history.algorithm == "FedAvg"
        assert history.config["eta"] == 0.05
        assert history.config["num_workers"] == 1

    def test_deterministic(self, split):
        a = one_worker(split, FedAvg, eta=0.05).run(20, eval_every=10)
        b = one_worker(split, FedAvg, eta=0.05).run(20, eval_every=10)
        assert a.test_accuracy == b.test_accuracy
        assert a.test_loss == b.test_loss

    def test_validation(self, split):
        with pytest.raises(ValueError):
            one_worker(split, FedAvg, eta=0.05).run(0)

    def test_centralized_upper_bounds_fedavg(self, split):
        """The classic sanity check: centralized training with the same
        step budget is at least as good as federated under non-iid."""
        train, test = split
        central = one_worker(split, FedAvg).run(200, eval_every=200)

        parts = partition_xclass(train, 4, 3, rng=5)
        model = make_logistic_regression(train.num_features, 10, rng=2)
        fed = Federation(
            model, [parts[:2], parts[2:]], test, batch_size=32, seed=6
        )
        federated = FedAvg(fed, eta=0.02, tau=10).run(200, eval_every=200)
        assert central.final_accuracy >= federated.final_accuracy - 0.03

    def test_nag_at_least_as_fast_as_sgd(self, split):
        sgd = one_worker(split, FedAvg).run(100, eval_every=100)
        nag = one_worker(split, FedNAG, gamma=0.7).run(100, eval_every=100)
        assert nag.test_loss[-1] <= sgd.test_loss[-1] + 1e-6
