"""Batched gradient-pass benchmark (PR acceptance gates).

One worker_step gradient pass of the one worker-axis program, timed two
ways on the same federation:

* ``one_row`` — W one-row passes, ``Federation.gradient`` once per
  worker (one small GEMM/conv stack per worker, Python dispatch between
  them);
* ``batched`` — one ``Federation.gradient_all`` pass over the whole
  fleet (stacked worker-axis GEMMs).

Two configs are gated:

* the 16-worker MLP reference federation (floor: batched ≥ 3x one-row);
* a 32-worker CNN federation with small local batches — the paper's
  many-device regime, exercising the conv/pool layers
  (floor: batched ≥ 2x one-row).

Results land in ``BENCH_batched.json`` at the repo root; the CI-safe
relaxed gate (no slower than the one-row passes) lives in
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

# Acceptance thresholds for the fleet pass on the gated configs.
MIN_SPEEDUP = 3.0
MIN_CNN_SPEEDUP = 2.0

NUM_EDGES = 4
WORKERS_PER_EDGE = 4  # 16 workers total
FEATURES = 20
CLASSES = 5
BATCH_SIZE = 8

# CNN config: many workers, small local batches (the FL regime the
# paper targets), so per-worker Python dispatch dominates one-row passes.
CNN_NUM_EDGES = 8
CNN_WORKERS_PER_EDGE = 4  # 32 workers total
CNN_IMAGE_SIZE = 8
CNN_BATCH_SIZE = 4


def _one_row_passes(fed, params, out):
    """W one-row passes: ``Federation.gradient`` once per worker."""
    for worker in range(fed.num_workers):
        fed.gradient(worker, params[worker], out=out[worker])


def _reference_federation():
    """16-worker small-MLP federation."""
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
        model, edges, edges[0][0], batch_size=BATCH_SIZE, seed=9
    )


def test_bench_batched_gradient_pass():
    """The fleet pass at least 3x faster than W one-row passes."""
    fed = _reference_federation()
    params = np.random.default_rng(4).normal(
        size=(fed.num_workers, fed.dim), scale=0.3
    )
    out = np.empty_like(params)

    fed.gradient_all(params, out=out)  # warm-up both paths
    _one_row_passes(fed, params, out)
    batched_time = time_min(lambda: fed.gradient_all(params, out=out))
    one_row_time = time_min(lambda: _one_row_passes(fed, params, out))

    speedup = one_row_time / batched_time
    print(
        f"\n[bench] batched gradient pass, {fed.num_workers} workers, "
        f"dim={fed.dim}, batch={BATCH_SIZE}: "
        f"one-row passes {one_row_time * 1e6:.0f} us, "
        f"batched {batched_time * 1e6:.0f} us ({speedup:.1f}x)"
    )
    record_bench("batched", "gradient_pass_16worker_mlp", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "batch_size": BATCH_SIZE,
        "one_row_us": one_row_time * 1e6,
        "batched_us": batched_time * 1e6,
        "speedup": speedup,
        "threshold": MIN_SPEEDUP,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"batched gradient pass only {speedup:.1f}x faster than one-row "
        f"passes (acceptance floor {MIN_SPEEDUP:.0f}x)"
    )


def _cnn_federation():
    """32-worker small-CNN federation."""
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
        model, edges, edges[0][0], batch_size=CNN_BATCH_SIZE, seed=9
    )


def test_bench_batched_cnn_gradient_pass():
    """The conv/pool fleet pass at least 2x faster than one-row passes."""
    fed = _cnn_federation()
    params = np.random.default_rng(4).normal(
        size=(fed.num_workers, fed.dim), scale=0.1
    )
    out = np.empty_like(params)

    fed.gradient_all(params, out=out)  # warm-up both paths
    _one_row_passes(fed, params, out)
    batched_time = time_min(
        lambda: fed.gradient_all(params, out=out), repeats=5, iters=10
    )
    one_row_time = time_min(
        lambda: _one_row_passes(fed, params, out), repeats=5, iters=10
    )

    speedup = one_row_time / batched_time
    print(
        f"\n[bench] batched CNN gradient pass, {fed.num_workers} "
        f"workers, dim={fed.dim}, batch={CNN_BATCH_SIZE}: "
        f"one-row passes {one_row_time * 1e6:.0f} us, "
        f"batched {batched_time * 1e6:.0f} us ({speedup:.1f}x)"
    )
    record_bench("batched", "batched_cnn", {
        "workers": fed.num_workers,
        "dim": fed.dim,
        "batch_size": CNN_BATCH_SIZE,
        "image_size": CNN_IMAGE_SIZE,
        "one_row_us": one_row_time * 1e6,
        "batched_us": batched_time * 1e6,
        "speedup": speedup,
        "threshold": MIN_CNN_SPEEDUP,
    })
    assert speedup >= MIN_CNN_SPEEDUP, (
        f"batched CNN gradient pass only {speedup:.1f}x faster than "
        f"one-row passes (acceptance floor {MIN_CNN_SPEEDUP:.0f}x)"
    )
