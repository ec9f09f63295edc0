"""Federation-level behavior of the one gradient program.

Every ``gradient_all`` call runs the model's worker-axis program over
the selected workers, gathered from the sample store; workers whose
batch lengths differ are grouped by length.  The reference is
``Federation.gradient``, the program's R = 1 case, one worker at a time
on an identically seeded federation: same mini-batch streams, same
numbers bit for bit.  (The event clock runs ``gradient_all`` too, one
call per wave of worker steps.)  Also covered: the vectorized evaluation and the
relaxed speed gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import Federation
from repro.data import Dataset
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
    return Federation(model, edges, test, batch_size=batch_size, seed=seed)


def _image_federation(model=None, workers=2):
    rng = np.random.default_rng(3)
    edges = [
        [
            Dataset(
                rng.normal(size=(12, 1, 8, 8)), rng.integers(0, 4, 12), 4
            )
            for _ in range(workers)
        ]
    ]
    test = Dataset(rng.normal(size=(8, 1, 8, 8)), rng.integers(0, 4, 8), 4)
    if model is None:
        model = make_cnn(1, 8, 4, rng=5)
    return Federation(model, edges, test, batch_size=6, seed=7)


def _program_rows(fed):
    """Wrap the federation's program; returns the list of the row
    counts of its calls."""
    program, rows = fed._engine, []

    def counted(params, xs, ys, grads):
        rows.append(params.shape[0])
        return type(program).gradient_all(program, params, xs, ys, grads)

    program.gradient_all = counted
    return rows


def _per_row(fed, params, out, rows=slice(None)):
    """The one-row reference: ``Federation.gradient`` worker by worker."""
    workers = np.arange(fed.num_workers)[rows]
    return np.array(
        [fed.gradient(w, params[w], out=out[w])[1] for w in workers.tolist()]
    )


# ----------------------------------------------------------------------
# One program call per iteration
# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_auto_picks_batched_for_dense_model(self):
        fed = _tabular_federation()
        rows = _program_rows(fed)
        params = np.zeros((fed.num_workers, fed.dim))
        fed.gradient_all(params, out=np.empty_like(params))
        assert rows == [fed.num_workers]

    def test_auto_picks_batched_for_conv_model(self):
        fed = _image_federation()
        rows = _program_rows(fed)
        params = np.zeros((fed.num_workers, fed.dim))
        fed.gradient_all(params, out=np.empty_like(params))
        assert rows == [fed.num_workers]

    def test_unknown_backend_rejected(self):
        """There is no backend switch left to set."""
        with pytest.raises(TypeError, match="backend"):
            Federation(
                make_logistic_regression(6, 3, rng=1),
                [[Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 3)]],
                Dataset(np.zeros((4, 6)), np.zeros(4, dtype=int), 3),
                backend="loop",
            )

    def test_heterogeneous_batch_sizes_fall_back(self):
        """A shard shorter than the batch clamps its batch length; the
        rows fall back to one program call per batch length, and every
        row still equals its one-row pass."""
        counts, params_rng = ((6, 40), (32,)), np.random.default_rng(4)
        fed = _tabular_federation(counts=counts, batch_size=16)
        ref = _tabular_federation(counts=counts, batch_size=16)
        assert fed.store.batch.tolist() == [6, 16, 16]
        rows = _program_rows(fed)
        params = params_rng.normal(size=(fed.num_workers, fed.dim))
        got, want = np.empty_like(params), np.empty_like(params)
        losses = fed.gradient_all(params, out=got)
        assert rows == [1, 2]
        np.testing.assert_array_equal(losses, _per_row(ref, params, want))
        np.testing.assert_array_equal(got, want)

    def test_loop_backend_forced(self):
        """The per-worker loop of the reference: each
        ``Federation.gradient`` call is one program call at R = 1."""
        fed = _tabular_federation()
        rows = _program_rows(fed)
        params = np.zeros((fed.num_workers, fed.dim))
        _per_row(fed, params, np.empty_like(params))
        assert rows == [1] * fed.num_workers

    def test_fallback_reason_counter_emitted(self):
        """With no fallback there is no fallback counter: a fleet pass
        counts nothing under ``worker_step.`` or ``batched.``."""
        fed = _tabular_federation()
        params = np.zeros((fed.num_workers, fed.dim))
        with telemetry.tracing() as tracer:
            fed.gradient_all(params, out=np.empty_like(params))
        assert not [
            key for key in tracer.counters
            if key.startswith(("worker_step.", "batched."))
        ]

    def test_forced_loop_emits_no_fallback_counter(self):
        """Neither the one-row passes nor a fleet split by batch length
        count a backend or fallback."""
        fed = _tabular_federation(counts=((6, 40), (32,)), batch_size=16)
        params = np.zeros((fed.num_workers, fed.dim))
        with telemetry.tracing() as tracer:
            _per_row(fed, params, np.empty_like(params))
            fed.gradient_all(params, out=np.empty_like(params))
        assert not [
            key for key in tracer.counters
            if key.startswith(("worker_step.", "batched."))
        ]


# ----------------------------------------------------------------------
# Table II zoo guard: one program call over the whole fleet
# ----------------------------------------------------------------------
class TestTableTwoZooLowers:
    """Every image model family of Table II runs as one program call.

    A regression that split the fleet into per-worker calls would only
    show up as a slowdown; these guards turn it into a test failure.
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
        rows = _program_rows(fed)
        params = np.random.default_rng(8).normal(
            size=(fed.num_workers, fed.dim), scale=0.2
        )
        out = np.empty_like(params)
        fed.gradient_all(params, out=out)
        assert rows == [fed.num_workers], f"{name} split the fleet"


# ----------------------------------------------------------------------
# Equivalence through the sampler path
# ----------------------------------------------------------------------
class TestSamplerPathEquivalence:
    def _both(self, **kwargs):
        return _tabular_federation(**kwargs), _tabular_federation(**kwargs)

    def test_gradient_all_matches_loop_stream(self):
        """Same seeds => same mini-batch stream => same grads/losses,
        whether the fleet runs in one call or one worker at a time."""
        batched, loop = self._both()
        params = np.random.default_rng(9).normal(
            size=(batched.num_workers, batched.dim)
        )
        for _ in range(3):  # several draws: streams stay in lockstep
            got = np.empty_like(params)
            want = np.empty_like(params)
            got_losses = batched.gradient_all(params, out=got)
            want_losses = _per_row(loop, params, want)
            np.testing.assert_array_equal(got_losses, want_losses)
            np.testing.assert_array_equal(got, want)

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
        want_losses = _per_row(loop, params, want, rows)
        assert got_losses.shape == (rows.size,)
        np.testing.assert_array_equal(got_losses, want_losses)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got[1], -1.0)  # untouched row

    @pytest.mark.parametrize(
        "factory",
        [
            None,
            lambda: make_cnn(1, 8, 4, rng=5),
            lambda: make_resnet(
                "resnet10", 1, 4, width_multiplier=1 / 16, rng=7
            ),
        ],
        ids=["logistic", "cnn", "resnet10"],
    )
    def test_index_selection_writes_only_its_rows(self, factory):
        """An index selection's gradients land in their rows of a
        NaN-filled ``out``, equal bit for bit to the one-row reference;
        every other row stays NaN."""
        if factory is None:
            batched, loop = self._both(counts=((24, 40), (32, 16)))
        else:
            batched, loop = (
                _image_federation(model=factory(), workers=4)
                for _ in range(2)
            )
        params = np.random.default_rng(12).normal(
            size=(batched.num_workers, batched.dim), scale=0.2
        )
        rows = np.array([3, 0, 2])
        got = np.full_like(params, np.nan)
        want = np.full_like(params, np.nan)
        got_losses = batched.gradient_all(params, rows=rows, out=got)
        want_losses = _per_row(loop, params, want, rows)
        np.testing.assert_array_equal(got_losses, want_losses)
        assert np.isfinite(got[rows]).all()
        np.testing.assert_array_equal(got[rows], want[rows])
        assert np.isnan(got[1]).all()

    def test_nonfinite_params_fall_back_to_loop_semantics(self):
        """A diverged row gets a NaN gradient and loss, as one worker's
        pass does, and the other rows are unaffected."""
        batched, loop = self._both()
        params = np.random.default_rng(11).normal(
            size=(batched.num_workers, batched.dim)
        )
        params[1] = np.nan
        got = np.empty_like(params)
        want = np.empty_like(params)
        got_losses = batched.gradient_all(params, out=got)
        want_losses = _per_row(loop, params, want)
        assert np.isnan(got_losses[1]) and np.isnan(want_losses[1])
        assert np.isnan(got[1]).all()
        finite = [0, 2]
        np.testing.assert_array_equal(got_losses[finite], want_losses[finite])
        np.testing.assert_array_equal(got[finite], want[finite])

    def test_backend_counter_emitted(self):
        """The traced fleet pass is one forward and one backward span of
        the program, with no backend counter beside them."""
        fed = _tabular_federation()
        params = np.zeros((fed.num_workers, fed.dim))
        with telemetry.tracing() as tracer:
            fed.gradient_all(params, out=np.empty_like(params))
        assert tracer.span_stats["oracle.forward"].count == 1
        assert tracer.span_stats["oracle.backward"].count == 1
        assert not [
            key for key in tracer.counters if key.startswith("worker_step.")
        ]


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
            fed.model.loss_fn.forward(predictions[None], fed.test_set.y[None])[0]
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
    """CI-safe gate: one fleet pass must never lose to W one-row passes.

    The slow side is the one-row reference, ``Federation.gradient``
    once per worker, on the same program.  The authoritative >=3x bound
    lives in ``benchmarks/bench_batched.py``; here the fleet pass only
    has to be no slower (with headroom for timer noise), so a regression
    that de-vectorizes the hot path fails tier-1.
    """
    counts = tuple((48,) * 4 for _ in range(4))  # 16 workers
    model = make_mlp(20, (32,), 5, rng=2)
    fed = _tabular_federation(
        counts=counts, features=20, classes=5, model=model
    )
    params = np.random.default_rng(6).normal(size=(16, fed.dim))
    out = np.empty_like(params)

    batched_time = _time_min(lambda: fed.gradient_all(params, out=out))
    loop_time = _time_min(lambda: _per_row(fed, params, out))
    assert batched_time <= loop_time * 1.10, (
        f"fleet gradient pass slower than one-row passes: "
        f"{batched_time * 1e6:.1f}us vs {loop_time * 1e6:.1f}us"
    )
