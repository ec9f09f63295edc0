"""Federation-level behavior of the batched gradient backend.

Covers backend selection (auto / loop / batched), transparent fallback
for models or federations the engine cannot lower, loop-vs-batched
equivalence through the *sampler* path (identical mini-batch streams),
the vectorized edge aggregation, and the single-pass evaluation.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import Federation
from repro.data import Dataset
from repro.nn import Dense, Dropout, Sequential, SupervisedModel
from repro.nn.models import (
    make_cnn,
    make_logistic_regression,
    make_mlp,
    make_resnet,
    make_vgg,
)

pytestmark = pytest.mark.batched


def _tabular_federation(
    counts=((24, 40), (32,)),
    features=6,
    classes=3,
    seed=0,
    batch_size=8,
    backend="auto",
    model=None,
):
    rng = np.random.default_rng(seed)
    edges = []
    for edge_counts in counts:
        edges.append(
            [
                Dataset(
                    rng.normal(size=(n, features)),
                    rng.integers(0, classes, n),
                    classes,
                )
                for n in edge_counts
            ]
        )
    test = Dataset(
        rng.normal(size=(16, features)), rng.integers(0, classes, 16), classes
    )
    if model is None:
        model = make_logistic_regression(features, classes, rng=1)
    return Federation(
        model, edges, test, batch_size=batch_size, seed=seed, backend=backend
    )


def _image_federation(backend="auto", model=None):
    rng = np.random.default_rng(3)
    edges = [
        [
            Dataset(
                rng.normal(size=(12, 1, 8, 8)), rng.integers(0, 4, 12), 4
            )
            for _ in range(2)
        ]
    ]
    test = Dataset(rng.normal(size=(8, 1, 8, 8)), rng.integers(0, 4, 8), 4)
    if model is None:
        model = make_cnn(1, 8, 4, rng=5)
    return Federation(
        model,
        edges,
        test,
        batch_size=6,
        seed=7,
        backend=backend,
    )


def _dropout_model(features=6, classes=3):
    """Live dropout layers sharing one generator cannot lower (the
    loop's worker-major draw order has no layer-major replay)."""
    rng = np.random.default_rng(9)
    return SupervisedModel(
        Sequential(
            Dense(features, 8, rng=0),
            Dropout(0.3, rng=rng),
            Dense(8, 8, rng=1),
            Dropout(0.3, rng=rng),
            Dense(8, classes, rng=2),
        )
    )


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_auto_picks_batched_for_dense_model(self):
        assert _tabular_federation().gradient_backend == "batched"

    def test_loop_backend_forced(self):
        fed = _tabular_federation(backend="loop")
        assert fed.gradient_backend == "loop"

    def test_auto_picks_batched_for_conv_model(self):
        fed = _image_federation()
        assert fed.gradient_backend == "batched"
        assert fed.lowering_reason is None

    def test_auto_falls_back_for_dropout_model(self):
        fed = _tabular_federation(model=_dropout_model())
        assert fed.gradient_backend == "loop"
        assert fed.lowering_reason == "layer:Dropout(shared-rng)"

    def test_batched_backend_rejects_dropout_model(self):
        with pytest.raises(ValueError, match=r"Dropout\(shared-rng\)"):
            _tabular_federation(model=_dropout_model(), backend="batched")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            _tabular_federation(backend="turbo")

    def test_heterogeneous_batch_sizes_fall_back(self):
        # One worker has fewer samples than batch_size, so its sampler
        # clamps: batch shapes differ across workers and cannot stack.
        fed = _tabular_federation(counts=((6, 40), (32,)), batch_size=16)
        assert fed.gradient_backend == "loop"
        assert fed.lowering_reason == "batches:heterogeneous"

    def test_fallback_reason_counter_emitted(self):
        fed = _tabular_federation(model=_dropout_model())
        params = np.zeros((fed.num_workers, fed.dim))
        out = np.empty_like(params)
        with telemetry.tracing() as tracer:
            fed.gradient_all(params, out=out)
        assert tracer.counters.get("worker_step.backend.loop") == 1
        assert (
            tracer.counters.get(
                "worker_step.backend.fallback.layer:Dropout(shared-rng)"
            )
            == 1
        )

    def test_forced_loop_emits_no_fallback_counter(self):
        fed = _tabular_federation(backend="loop")
        assert fed.lowering_reason is None
        params = np.zeros((fed.num_workers, fed.dim))
        out = np.empty_like(params)
        with telemetry.tracing() as tracer:
            fed.gradient_all(params, out=out)
        fallbacks = [
            key
            for key in tracer.counters
            if key.startswith("worker_step.backend.fallback.")
        ]
        assert fallbacks == []


# ----------------------------------------------------------------------
# Table II zoo guard: no silent regression to the loop under auto
# ----------------------------------------------------------------------
class TestTableTwoZooLowers:
    """Every image model family of Table II must use the batched engine.

    A lowering regression (a layer falling off the supported set) would
    silently flip ``backend="auto"`` to the loop and only show up as a
    slowdown; these guards turn it into a test failure.
    """

    @pytest.mark.parametrize(
        "name, factory",
        [
            ("cnn", lambda: make_cnn(1, 8, 4, rng=5)),
            (
                "vgg16",
                lambda: make_vgg(
                    "vgg16", 1, 8, 4, width_multiplier=1 / 16, rng=6
                ),
            ),
            (
                "resnet18",
                lambda: make_resnet(
                    "resnet18", 1, 4, width_multiplier=1 / 16, rng=7
                ),
            ),
        ],
    )
    def test_auto_backend_stays_batched(self, name, factory):
        fed = _image_federation(model=factory())
        assert fed.gradient_backend == "batched", (
            f"{name} silently regressed to the loop backend "
            f"(reason: {fed.lowering_reason})"
        )
        params = np.random.default_rng(8).normal(
            size=(fed.num_workers, fed.dim), scale=0.2
        )
        out = np.empty_like(params)
        with telemetry.tracing() as tracer:
            fed.gradient_all(params, out=out)
        assert tracer.counters.get("worker_step.backend.batched") == 1
        assert tracer.counters.get("worker_step.backend.loop") is None


# ----------------------------------------------------------------------
# Equivalence through the sampler path
# ----------------------------------------------------------------------
class TestSamplerPathEquivalence:
    def _both(self, **kwargs):
        return (
            _tabular_federation(backend="batched", **kwargs),
            _tabular_federation(backend="loop", **kwargs),
        )

    def test_gradient_all_matches_loop_stream(self):
        """Same seeds => same mini-batch stream => same grads/losses."""
        batched, loop = self._both()
        params = np.random.default_rng(9).normal(
            size=(batched.num_workers, batched.dim)
        )
        for _ in range(3):  # several draws: streams stay in lockstep
            got = np.empty_like(params)
            want = np.empty_like(params)
            got_losses = batched.gradient_all(params, out=got)
            want_losses = loop.gradient_all(params, out=want)
            np.testing.assert_allclose(
                got_losses, want_losses, rtol=1e-10, atol=1e-14
            )
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_gradient_all_row_subset(self):
        """Fault-masked rows: only selected rows written, rest intact."""
        batched, loop = self._both()
        params = np.random.default_rng(10).normal(
            size=(batched.num_workers, batched.dim)
        )
        rows = np.array([0, 2])
        got = np.full_like(params, -1.0)
        want = np.full_like(params, -1.0)
        got_losses = batched.gradient_all(params, rows=rows, out=got)
        want_losses = loop.gradient_all(params, rows=rows, out=want)
        assert got_losses.shape == (rows.size,)
        np.testing.assert_allclose(
            got_losses, want_losses, rtol=1e-10, atol=1e-14
        )
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)
        np.testing.assert_array_equal(got[1], -1.0)  # untouched row

    def test_nonfinite_params_fall_back_to_loop_semantics(self):
        batched, loop = self._both()
        params = np.random.default_rng(11).normal(
            size=(batched.num_workers, batched.dim)
        )
        params[1] = np.nan
        got = np.empty_like(params)
        want = np.empty_like(params)
        got_losses = batched.gradient_all(params, out=got)
        want_losses = loop.gradient_all(params, out=want)
        assert np.isnan(got_losses[1]) and np.isnan(want_losses[1])
        assert np.isnan(got[1]).all()
        finite = [0, 2]
        np.testing.assert_allclose(
            got_losses[finite], want_losses[finite], rtol=1e-10, atol=1e-14
        )
        np.testing.assert_allclose(
            got[finite], want[finite], rtol=1e-10, atol=1e-14
        )

    def test_backend_counter_emitted(self):
        batched, loop = self._both()
        params = np.zeros((batched.num_workers, batched.dim))
        out = np.empty_like(params)
        with telemetry.tracing() as tracer:
            batched.gradient_all(params, out=out)
        assert tracer.counters.get("worker_step.backend.batched") == 1
        with telemetry.tracing() as tracer:
            loop.gradient_all(params, out=out)
        assert tracer.counters.get("worker_step.backend.loop") == 1


# ----------------------------------------------------------------------
# Vectorized aggregation and evaluation
# ----------------------------------------------------------------------
class TestAggregationAndEval:
    def test_evaluate_matches_two_pass_reference(self):
        fed = _tabular_federation()
        params = fed.initial_params()
        accuracy, loss = fed.evaluate(params)
        fed.model.set_flat_params(params)
        predictions = fed.model.predict(fed.test_set.x)
        want_accuracy = float(
            np.mean(predictions.argmax(axis=1) == fed.test_set.y)
        )
        want_loss = float(
            fed.model.loss_fn.forward(predictions, fed.test_set.y)
        )
        assert accuracy == pytest.approx(want_accuracy)
        assert loss == pytest.approx(want_loss)


# ----------------------------------------------------------------------
# Relaxed perf smoke gate (authoritative 3x bound: bench_batched.py)
# ----------------------------------------------------------------------
def _time_min(fn, repeats=5, iters=8):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / iters


def test_batched_not_slower_than_loop():
    """CI-safe gate: the batched engine must never lose to the loop.

    The authoritative ≥3x speedup bound lives in
    ``benchmarks/bench_batched.py``; here we only assert the batched
    pass is no slower (with headroom for timer noise) so a regression
    that de-vectorizes the hot path fails tier-1.
    """
    counts = tuple((48,) * 4 for _ in range(4))  # 16 workers
    model = make_mlp(20, (32,), 5, rng=2)
    batched = _tabular_federation(
        counts=counts, features=20, classes=5, model=model, backend="batched"
    )
    model_loop = make_mlp(20, (32,), 5, rng=2)
    loop = _tabular_federation(
        counts=counts, features=20, classes=5, model=model_loop,
        backend="loop",
    )
    params = np.random.default_rng(6).normal(size=(16, batched.dim))
    out = np.empty_like(params)

    batched_time = _time_min(
        lambda: batched.gradient_all(params, out=out)
    )
    loop_time = _time_min(lambda: loop.gradient_all(params, out=out))
    assert batched_time <= loop_time * 1.10, (
        f"batched gradient pass slower than loop: "
        f"{batched_time * 1e6:.1f}us vs {loop_time * 1e6:.1f}us"
    )
