"""Batched gradient-engine benchmark (PR acceptance gates).

One worker_step gradient pass, timed under both backends:

* ``loop``    — the sequential per-worker oracle (one small GEMM/conv
  stack per worker, Python dispatch between them);
* ``batched`` — the vectorized engine (stacked worker-axis GEMMs over
  the whole fleet).

Two configs are gated:

* the 16-worker MLP reference federation (floor: batched ≥ 3x loop);
* a 32-worker CNN federation with small local batches — the paper's
  many-device regime, exercising the conv/pool/norm lowerings
  (floor: batched ≥ 2x loop).

Results land in ``BENCH_batched.json`` at the repo root; the CI-safe
relaxed gate (no slower than loop) lives in
``tests/core/test_batched_backend.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Federation
from repro.data import Dataset
from repro.nn.models import make_cnn, make_mlp

from .recorder import record_bench
from .timing import time_min

pytestmark = pytest.mark.batched

# Acceptance thresholds for the batched engine on the gated configs.
MIN_SPEEDUP = 3.0
MIN_CNN_SPEEDUP = 2.0

NUM_EDGES = 4
WORKERS_PER_EDGE = 4  # 16 workers total
FEATURES = 20
CLASSES = 5
BATCH_SIZE = 8

# CNN config: many workers, small local batches (the FL regime the
# paper targets), so per-worker Python dispatch dominates the loop.
CNN_NUM_EDGES = 8
CNN_WORKERS_PER_EDGE = 4  # 32 workers total
CNN_IMAGE_SIZE = 8
CNN_BATCH_SIZE = 4


def _reference_federation(backend):
    """16-worker small-MLP federation, identically seeded per backend."""
    rng = np.random.default_rng(7)
    edges = [
        [
            Dataset(
                rng.normal(size=(96, FEATURES)),
                rng.integers(0, CLASSES, 96),
                CLASSES,
            )
            for _ in range(WORKERS_PER_EDGE)
        ]
        for _ in range(NUM_EDGES)
    ]
    model = make_mlp(FEATURES, (16,), CLASSES, rng=8)
    return Federation(
        model, edges, edges[0][0], batch_size=BATCH_SIZE, seed=9,
        backend=backend,
    )


def test_bench_batched_gradient_pass():
    """Batched worker_step at least 3x faster than the per-worker loop."""
    batched = _reference_federation("batched")
    loop = _reference_federation("loop")
    assert batched.gradient_backend == "batched"
    assert loop.gradient_backend == "loop"

    params = np.random.default_rng(4).normal(
        size=(batched.num_workers, batched.dim), scale=0.3
    )
    out = np.empty_like(params)

    batched.gradient_all(params, out=out)  # warm-up both paths
    loop.gradient_all(params, out=out)
    batched_time = time_min(lambda: batched.gradient_all(params, out=out))
    loop_time = time_min(lambda: loop.gradient_all(params, out=out))

    speedup = loop_time / batched_time
    print(
        f"\n[bench] batched gradient pass, {batched.num_workers} workers, "
        f"dim={batched.dim}, batch={BATCH_SIZE}: "
        f"loop {loop_time * 1e6:.0f} us, "
        f"batched {batched_time * 1e6:.0f} us ({speedup:.1f}x)"
    )
    record_bench("batched", "gradient_pass_16worker_mlp", {
        "workers": batched.num_workers,
        "dim": batched.dim,
        "batch_size": BATCH_SIZE,
        "loop_us": loop_time * 1e6,
        "batched_us": batched_time * 1e6,
        "speedup": speedup,
        "threshold": MIN_SPEEDUP,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"batched gradient pass only {speedup:.1f}x faster than the loop "
        f"(acceptance floor {MIN_SPEEDUP:.0f}x)"
    )


def _cnn_federation(backend):
    """32-worker small-CNN federation, identically seeded per backend."""
    rng = np.random.default_rng(7)
    edges = [
        [
            Dataset(
                rng.normal(
                    size=(48, 1, CNN_IMAGE_SIZE, CNN_IMAGE_SIZE)
                ),
                rng.integers(0, CLASSES, 48),
                CLASSES,
            )
            for _ in range(CNN_WORKERS_PER_EDGE)
        ]
        for _ in range(CNN_NUM_EDGES)
    ]
    model = make_cnn(1, CNN_IMAGE_SIZE, CLASSES, width=4, hidden=32, rng=8)
    return Federation(
        model, edges, edges[0][0], batch_size=CNN_BATCH_SIZE, seed=9,
        backend=backend,
    )


def test_bench_batched_cnn_gradient_pass():
    """Batched conv/pool worker_step at least 2x faster than the loop."""
    batched = _cnn_federation("batched")
    loop = _cnn_federation("loop")
    assert batched.gradient_backend == "batched"
    assert loop.gradient_backend == "loop"

    params = np.random.default_rng(4).normal(
        size=(batched.num_workers, batched.dim), scale=0.1
    )
    out = np.empty_like(params)

    batched.gradient_all(params, out=out)  # warm-up both paths
    loop.gradient_all(params, out=out)
    batched_time = time_min(
        lambda: batched.gradient_all(params, out=out), repeats=5, iters=10
    )
    loop_time = time_min(
        lambda: loop.gradient_all(params, out=out), repeats=5, iters=10
    )

    speedup = loop_time / batched_time
    print(
        f"\n[bench] batched CNN gradient pass, {batched.num_workers} "
        f"workers, dim={batched.dim}, batch={CNN_BATCH_SIZE}: "
        f"loop {loop_time * 1e6:.0f} us, "
        f"batched {batched_time * 1e6:.0f} us ({speedup:.1f}x)"
    )
    record_bench("batched", "batched_cnn", {
        "workers": batched.num_workers,
        "dim": batched.dim,
        "batch_size": CNN_BATCH_SIZE,
        "image_size": CNN_IMAGE_SIZE,
        "loop_us": loop_time * 1e6,
        "batched_us": batched_time * 1e6,
        "speedup": speedup,
        "threshold": MIN_CNN_SPEEDUP,
    })
    assert speedup >= MIN_CNN_SPEEDUP, (
        f"batched CNN gradient pass only {speedup:.1f}x faster than the "
        f"loop (acceptance floor {MIN_CNN_SPEEDUP:.0f}x)"
    )
