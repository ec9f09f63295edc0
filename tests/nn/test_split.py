"""The row-parallel pass: a heavy ``gradient_all`` split across threads.

A pass whose forward multiply-adds reach ``2 * SPLIT_MACS``, and whose
smallest block reaches ``SPLIT_CALL_MACS`` per leaf-layer call, runs its
rows as contiguous blocks, the first on the model's own layers in the
calling thread and each other one on a replica of the module tree in a
pool thread.  The oracle is the one-thread pass of an identical model:
gradients, losses and batch norm's running buffers must match it bit
for bit.  ``force`` patches the constants and the CPU count, so every
case splits (or not) the same way on any host, into more blocks than
the library's two where a case asks for them.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from benchmarks.e2e.workloads import WORKLOADS
from repro import ExperimentConfig, telemetry
from repro.core import Federation
from repro.data import Dataset, make_synthetic_cifar10, make_synthetic_mnist
from repro.experiments.builders import build_model
from repro.nn import BatchNorm2d, Module, ReLU, functional, supervised
from repro.nn import conv as conv_module
from repro.nn.models import (
    make_cnn,
    make_logistic_regression,
    make_mlp,
    make_resnet,
    make_vgg,
)

pytestmark = pytest.mark.batched

FEATURES = 9
CLASSES = 4
IMAGE = 8
BATCH = 4

ZOO = {
    "logistic": (lambda: make_logistic_regression(FEATURES, CLASSES, rng=1), (FEATURES,)),
    "mlp": (lambda: make_mlp(FEATURES, (8, 6), CLASSES, rng=2), (FEATURES,)),
    "cnn": (lambda: make_cnn(1, IMAGE, CLASSES, width=3, hidden=16, rng=3), (1, IMAGE, IMAGE)),
    "vgg16": (
        lambda: make_vgg("vgg16", 1, IMAGE, CLASSES, width_multiplier=1 / 16, rng=4),
        (1, IMAGE, IMAGE),
    ),
    "resnet10": (
        lambda: make_resnet("resnet10", 1, CLASSES, width_multiplier=1 / 16, rng=5),
        (1, IMAGE, IMAGE),
    ),
}
CASES = sorted(
    {(rows, min(blocks, rows)) for rows in (2, 3, 7, 32) for blocks in (2, 3, rows)}
)


def force(monkeypatch, blocks: int) -> None:
    """Split every pass of two or more rows into ``min(blocks, R)``."""
    monkeypatch.setattr(supervised, "SPLIT_MACS", 1)
    monkeypatch.setattr(supervised, "SPLIT_CALL_MACS", 0)
    monkeypatch.setattr(supervised, "MAX_BLOCKS", blocks)
    monkeypatch.setattr(supervised, "_cpus", lambda: blocks)


def one_thread(monkeypatch) -> None:
    monkeypatch.setattr(supervised, "_cpus", lambda: 1)


def inputs(shape, rows, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(rows, BATCH) + shape)
    ys = rng.integers(0, CLASSES, size=(rows, BATCH))
    return xs, ys, rng


def buffers(model) -> list[np.ndarray]:
    return [
        buffer
        for layer in model.module.modules()
        if isinstance(layer, BatchNorm2d)
        for buffer in (layer.running_mean, layer.running_var)
    ]


def two_passes(model, params, xs, ys):
    """Gradients and losses of two passes (replicas are reused, and
    batch norm folds twice), then the running buffers."""
    results = []
    for shift in (0.0, 0.1):
        grads = np.full_like(params, -7.0)
        losses = model.gradient_all(params + shift, xs, ys, grads)
        results.append((grads, losses))
    return results, [b.copy() for b in buffers(model)]


def assert_same(a, b) -> None:
    (runs_a, buffers_a), (runs_b, buffers_b) = a, b
    for (grads_a, losses_a), (grads_b, losses_b) in zip(runs_a, runs_b):
        np.testing.assert_array_equal(grads_a, grads_b)
        np.testing.assert_array_equal(losses_a, losses_b)
    assert len(buffers_a) == len(buffers_b)
    for x, y in zip(buffers_a, buffers_b):
        np.testing.assert_array_equal(x, y)


def compare(monkeypatch, name, rows, blocks, *, poison=()):
    """The forced split against the one-thread pass of a twin model."""
    factory, shape = ZOO[name]
    xs, ys, rng = inputs(shape, rows)
    reference, split = factory(), factory()
    params = rng.normal(size=(rows, reference.num_params), scale=0.4)
    for row, value in poison:
        params[row, ::3] = value
    one_thread(monkeypatch)
    want = two_passes(reference, params, xs, ys)
    force(monkeypatch, blocks)
    got = two_passes(split, params, xs, ys)
    assert_same(got, want)
    return split


# ----------------------------------------------------------------------
# Bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rows,blocks", CASES, ids=lambda v: str(v))
@pytest.mark.parametrize("name", sorted(ZOO))
def test_split_pass_matches_one_thread(monkeypatch, name, rows, blocks):
    """Gradients, losses and batch-norm buffers equal the one-thread
    pass's, blocks of uneven size included."""
    split = compare(monkeypatch, name, rows, blocks)
    assert len(split._replicas) == blocks - 1


@pytest.mark.parametrize("name", sorted(ZOO))
def test_non_finite_rows_split_like_one_thread(monkeypatch, name):
    """Rows with NaN or inf parameters leave the pass before it splits;
    the five that stay run as blocks of 2, 2 and 1."""
    split = compare(monkeypatch, name, 7, 3, poison=((1, np.nan), (4, np.inf)))
    assert len(split._replicas) == 2


@pytest.mark.parametrize("rows,signs", [(4, {0: 1, 2: -1}), (4, {2: 1, 3: -1})])
def test_overflowing_rows_fold_without_warning(monkeypatch, rows, signs):
    """Finite parameters big enough to overflow drive a batch norm's
    running mean to +inf in one row and -inf in another.  Folding a
    replica's rows then adds inf to -inf; it does so silently, as the
    one-thread pass does, and the buffers match (the rows sit in the
    first and second block, or both in the second)."""
    factory, shape = ZOO["resnet10"]
    xs, ys, rng = inputs(shape, rows)
    xs = np.abs(xs) + 1.0
    reference, split = factory(), factory()
    params = rng.normal(size=(rows, reference.num_params), scale=0.4)
    for row, sign in signs.items():
        params[row] = sign * 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        one_thread(monkeypatch)
        want = two_passes(reference, params, xs, ys)
        force(monkeypatch, 2)
        got = two_passes(split, params, xs, ys)
    assert_same(got, want)
    assert np.isnan(buffers(split)[0]).any()


def _federation(seed: int) -> Federation:
    """A CNN federation whose workers hold 40 or 5 samples: at batch 16
    the program runs one pass per batch length."""
    rng = np.random.default_rng(seed)

    def shard(n):
        return Dataset(rng.normal(size=(n, 1, IMAGE, IMAGE)), rng.integers(0, CLASSES, n), CLASSES)

    edges = [[shard(n) for n in (40, 5, 40)], [shard(n) for n in (5, 40, 40, 5)]]
    model = make_cnn(1, IMAGE, CLASSES, width=3, hidden=16, rng=seed)
    return Federation(model, edges, shard(8), batch_size=16, seed=seed)


def test_mixed_batch_lengths_through_federation(monkeypatch):
    """Each batch length's pass splits on its own; two steps of the
    whole fleet match the one-thread federation bit for bit."""
    reference, split = _federation(3), _federation(3)
    assert not reference.store.uniform
    params = reference.initial_worker_matrix()

    def steps(federation):
        out = []
        for _ in range(2):
            grads = np.empty_like(params)
            losses = federation.gradient_all(params, out=grads)
            out.append((grads, losses))
        return out

    one_thread(monkeypatch)
    want = steps(reference)
    force(monkeypatch, 3)
    got = steps(split)
    for (grads_a, losses_a), (grads_b, losses_b) in zip(got, want):
        np.testing.assert_array_equal(grads_a, grads_b)
        np.testing.assert_array_equal(losses_a, losses_b)
    assert len(split.model._replicas) == 2


def test_first_layer_of_every_block_skips_input_gradient(monkeypatch):
    """The replicas' stem conv runs no col2im either: 1 per block."""
    factory, shape = ZOO["cnn"]
    model = factory()
    calls = []
    real = conv_module.col2im

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(conv_module, "col2im", counted)
    force(monkeypatch, 3)
    xs, ys, rng = inputs(shape, 7)
    params = rng.normal(size=(7, model.num_params), scale=0.4)
    model.gradient_all(params, xs, ys, np.empty_like(params))
    assert len(calls) == 3


# ----------------------------------------------------------------------
# The replicas
# ----------------------------------------------------------------------
CACHES = ("_cache", "_mask", "_winners", "_cols", "_x", "_x_shape", "_pending")


def test_replica_shares_no_per_pass_state():
    """A replica taken after an evaluation, which leaves every cache
    full, carries none of them, no im2col scratch, and no layer object
    of the original; its batch norms defer their statistics."""
    factory, shape = ZOO["resnet10"]
    model = factory()
    x = np.random.default_rng(0).normal(size=(5,) + shape)
    model.predict(x)
    originals = model.module.modules()
    assert any(getattr(layer, "_scratch", None) for layer in originals)
    assert any(getattr(layer, "_cache", None) is not None for layer in originals)

    replica = model.module.replica()
    copies = replica.modules()
    assert [type(m) for m in copies] == [type(m) for m in originals]
    assert not {id(m) for m in copies} & {id(m) for m in originals}
    for layer in copies:
        for name in CACHES:
            assert getattr(layer, name, None) is None, (type(layer).__name__, name)
        assert getattr(layer, "_scratch", {}) == {}
    assert replica._parent is None
    assert replica.parameters() == model.module.parameters()
    norms = [m for m in copies if isinstance(m, BatchNorm2d)]
    assert norms and all(norm.defers for norm in norms)
    assert not any(m.defers for m in originals if isinstance(m, BatchNorm2d))


class _Wrapper:
    """A tracing-style stand-in for a layer of ``model.layers``."""

    def __init__(self, inner):
        self.inner, self.covered = inner, inner.covered

    def bind(self, params, grads):
        self.inner.bind(params, grads)

    def forward(self, x):
        return self.inner.forward(x)

    def backward(self, grad):
        return self.inner.backward(grad)


def test_replicas_come_from_the_module_tree(monkeypatch):
    """Replicas are built from the module tree, not from the program's
    (wrapped) layer list, and no two blocks share a layer object."""
    factory, shape = ZOO["resnet10"]
    model = factory()
    model.layers[:] = [_Wrapper(layer) for layer in model.layers]
    force(monkeypatch, 3)
    xs, ys, rng = inputs(shape, 7)
    params = rng.normal(size=(7, model.num_params), scale=0.4)
    model.gradient_all(params, xs, ys, np.empty_like(params))
    seen = {id(m) for m in model.module.modules()}
    for replica in model._replicas:
        assert all(isinstance(layer, Module) for layer in replica.layers)
        ids = {id(m) for m in replica.module.modules()}
        assert not ids & seen
        seen |= ids


# ----------------------------------------------------------------------
# When a pass splits
# ----------------------------------------------------------------------
def _workload_pass(name: str, rows: int):
    """The workload's model, built as its run builds it, and the shape
    of a ``rows``-row pass (only the shape is read)."""
    workload = WORKLOADS[name]
    config = ExperimentConfig(**workload.config)
    if config.population:
        # PrototypeShards' flat features.
        sample = Dataset(np.zeros((2, 32)), np.arange(2), 10)
    elif config.dataset == "mnist":
        sample = make_synthetic_mnist(20, rng=0)
    else:
        sample = make_synthetic_cifar10(20, rng=0)
    if config.model == "logistic":
        sample = sample.flattened()
    model = build_model(config, sample)
    xs = np.broadcast_to(0.0, (rows, config.batch_size) + sample.x.shape[1:])
    return model, xs


@pytest.mark.parametrize(
    "name,rows,macs,splits",
    [
        ("cnn_hieradmo", 32, 19_644_416, True),
        ("resnet_fedavg", 8, 41_564_160, True),
        # A full 256-row cohort, and a full 32-row wave.
        ("population_1m", 256, 1_310_720, False),
        ("async_stragglers", 32, 1_536_000, False),
    ],
)
@pytest.mark.parametrize("cpus", [1, 2, 3, 64])
def test_decision_rule_on_the_workloads(monkeypatch, name, rows, macs, splits, cpus):
    """cnn_hieradmo and resnet_fedavg split into two blocks wherever two
    CPUs are free (982 K and 352 K multiply-adds per leaf-layer call in
    a block), and into no more on a larger affinity; population_1m and
    async_stragglers never split; nothing splits on one CPU."""
    model, xs = _workload_pass(name, rows)
    assert rows * xs.shape[1] * model.module.macs(xs.shape[2:])[0] == macs
    if splits:
        per_call = macs // 2 // model._layer_calls
        assert per_call >= 3 * supervised.SPLIT_CALL_MACS
    monkeypatch.setattr(supervised, "_cpus", lambda: cpus)
    assert model._blocks(xs) == (min(cpus, 2) if splits else 1)


@pytest.mark.parametrize(
    "layout,channels,image,rows,batch,per_call,splits",
    [
        # Measured one thread against two blocks on 2 CPUs: these three
        # ran 1.21x, 1.07x and 1.30x slower split ...
        ("resnet18", 3, 10, 2, 16, 88_059, False),
        ("resnet18", 3, 10, 3, 16, 88_059, False),
        ("resnet10", 1, 8, 8, 8, 58_572, False),
        # ... and these gained, 0.92x and 0.90x.
        ("resnet18", 3, 10, 4, 16, 176_119, True),
        ("resnet10", 1, 8, 16, 8, 117_145, True),
    ],
)
def test_small_deep_passes_keep_one_thread(
    monkeypatch, layout, channels, image, rows, batch, per_call, splits
):
    """Past ``2 * SPLIT_MACS``, a pass splits only if its smallest
    block's multiply-adds per leaf-layer call reach SPLIT_CALL_MACS."""
    model = make_resnet(layout, channels, 10, width_multiplier=1 / 16, rng=0)
    xs = np.broadcast_to(0.0, (rows, batch, channels, image, image))
    per_sample = model.module.macs(xs.shape[2:])[0]
    assert rows * batch * per_sample >= 2 * supervised.SPLIT_MACS
    assert rows // 2 * batch * per_sample // model._layer_calls == per_call
    monkeypatch.setattr(supervised, "_cpus", lambda: 2)
    assert model._blocks(xs) == (2 if splits else 1)


def test_layer_calls():
    """Leaf layers of a forward: the CNN's 10, ResNet-10's 35 (six per
    block, eight with a projection) and ResNet-18's 59."""
    assert make_cnn(1, 10, 10, width=8, hidden=32, rng=0)._layer_calls == 10
    for layout, calls in (("resnet10", 35), ("resnet18", 59)):
        model = make_resnet(layout, 1, 10, width_multiplier=1 / 16, rng=0)
        assert model._layer_calls == calls


def test_layer_multiply_adds():
    """Dense in*out and Conv2d OH*OW*C*K*K*F per sample; the rest 0."""
    cnn = make_cnn(1, 10, 10, width=8, hidden=32, rng=0)
    conv1, _, pool, conv2 = cnn.layers[:4]
    assert conv1.macs((1, 10, 10)) == (10 * 10 * 1 * 9 * 8, (8, 10, 10))
    assert pool.macs((8, 10, 10)) == (0, (8, 5, 5))
    assert conv2.macs((8, 5, 5)) == (5 * 5 * 8 * 9 * 16, (16, 5, 5))
    assert ReLU().macs((3, 4)) == (0, (3, 4))
    assert cnn.module.macs((1, 10, 10)) == (7200 + 28800 + 64 * 32 + 32 * 10, (10,))


# ----------------------------------------------------------------------
# Threads
# ----------------------------------------------------------------------
def _threads_of_runs(monkeypatch):
    idents = []
    real = supervised.SupervisedModel._run

    def recorded(self, *args):
        idents.append(threading.get_ident())
        return real(self, *args)

    monkeypatch.setattr(supervised.SupervisedModel, "_run", recorded)
    return idents


def test_recording_tracer_keeps_one_thread(monkeypatch):
    """Under a recording tracer a pass that would split runs on the
    calling thread, and its oracle spans are one pair per pass."""
    factory, shape = ZOO["cnn"]
    model = factory()
    force(monkeypatch, 3)
    idents = _threads_of_runs(monkeypatch)
    xs, ys, rng = inputs(shape, 7)
    params = rng.normal(size=(7, model.num_params), scale=0.4)
    with telemetry.tracing() as tracer:
        model.gradient_all(params, xs, ys, np.empty_like(params))
    assert idents == [threading.get_ident()]
    assert tracer.span_stats["oracle.forward"].count == 1
    assert model._replicas == []
    model.gradient_all(params, xs, ys, np.empty_like(params))
    assert len(idents) == 4 and set(idents[1:]) - {threading.get_ident()}


def test_pool_is_built_once(monkeypatch):
    factory, shape = ZOO["mlp"]
    model = factory()
    force(monkeypatch, 2)
    xs, ys, rng = inputs(shape, 4)
    params = rng.normal(size=(4, model.num_params))
    model.gradient_all(params, xs, ys, np.empty_like(params))
    pool = supervised._pool
    model.gradient_all(params, xs, ys, np.empty_like(params))
    assert supervised._pool is pool and supervised._pool_pid == os.getpid()


@pytest.mark.parametrize("failing", [0, 2])
def test_block_exception_propagates_after_every_block(monkeypatch, failing):
    """A block's exception reaches the caller, and only once every other
    block has finished."""
    factory, shape = ZOO["mlp"]
    model = factory()
    force(monkeypatch, 3)
    xs, ys, rng = inputs(shape, 6)
    params = rng.normal(size=(6, model.num_params))
    model.gradient_all(params, xs, ys, np.empty_like(params))
    finished = []
    real = supervised.SupervisedModel._run
    programs = [model, *model._replicas]

    def run(self, *args):
        if self is programs[failing]:
            raise ValueError("block failed")
        time.sleep(0.05)
        losses = real(self, *args)
        finished.append(self)
        return losses

    monkeypatch.setattr(supervised.SupervisedModel, "_run", run)
    with pytest.raises(ValueError, match="block failed"):
        model.gradient_all(params, xs, ys, np.empty_like(params))
    assert len(finished) == 2


def test_shared_index_cache_under_contention(monkeypatch):
    """Eight blocks on the pool's threads and the calling one, switching
    every microsecond, share the fold-index cache while it is cleared at
    every insert: each pass still matches one thread bit for bit."""
    factory, shape = ZOO["resnet10"]
    reference, split = factory(), factory()
    xs, ys, rng = inputs(shape, 19)
    params = rng.normal(size=(19, reference.num_params), scale=0.4)
    one_thread(monkeypatch)
    want = two_passes(reference, params, xs, ys)
    monkeypatch.setattr(functional, "_FOLD_INDEX_CACHE_MAX", 1)
    force(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 30
        got = two_passes(split, params, xs, ys)
        assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(interval)
    assert_same(got, want)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_pass_in_forked_child_completes(monkeypatch):
    """A child forked after a split pass inherits the pool object but
    not its threads: its own split pass still completes, with the same
    numbers."""
    factory, shape = ZOO["cnn"]
    model = factory()
    force(monkeypatch, 3)
    xs, ys, rng = inputs(shape, 7)
    params = rng.normal(size=(7, model.num_params), scale=0.4)
    want = np.empty_like(params)
    model.gradient_all(params, xs, ys, want)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        status = 1
        try:
            grads = np.empty_like(params)
            model.gradient_all(params, xs, ys, grads)
            status = 0 if np.array_equal(grads, want) else 2
        finally:
            os.write(write, bytes([status]))
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if os.waitpid(pid, os.WNOHANG) != (0, 0):
            break
        time.sleep(0.02)
    else:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        os.close(read)
        pytest.fail("the forked child's split pass never finished")
    status = os.read(read, 1)
    os.close(read)
    assert status == b"\x00"
