"""Crash-resume equivalence: every golden-battery algorithm, both drivers.

The headline guarantee of the checkpoint subsystem: a run that crashes
mid-training (via the scripted ``crash_iterations`` fault) and resumes
from its last durable checkpoint must reproduce the uninterrupted run
bit-for-bit — accuracy/loss series, the adaptive-momentum gamma trace,
the communication ledger, and (for the event-driven runs) the simulated
time axis, all at rtol 1e-8.

The resumed arm always builds a *fresh* algorithm and federation — the
only carried-over state is the checkpoint file — and never re-attaches
the crash plan (the crash would fire again at the same iteration).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import AsyncFedAvg, AsyncHierAdMo
from repro.checkpoint import CheckpointManager
from repro.checkpoint.state import federation_state
from repro.core import Federation, HierAdMo
from repro.data import (
    make_synthetic_cifar10,
    partition_xclass,
    train_test_split,
)
from repro.faults import FaultPlan, InjectedCrash
from repro.nn.models import make_resnet
from tests.integration.test_golden_trajectories import (
    ALGORITHMS,
    EVAL_EVERY,
    TOTAL_ITERATIONS,
    build_federation,
)

pytestmark = pytest.mark.checkpoint

CRASH_AT = 17
CHECKPOINT_EVERY = 5

ASYNC_CASES = {
    "AsyncHierAdMo": (AsyncHierAdMo, {"eta": 0.05, "tau": 3, "pi": 2}),
    "AsyncFedAvg": (AsyncFedAvg, {"eta": 0.05, "tau": 6}),
}


def assert_bit_exact(golden, resumed, *, eval_times=False):
    assert resumed.iterations == golden.iterations
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            getattr(resumed, series),
            getattr(golden, series),
            rtol=1e-8,
            atol=1e-10,
        ), f"{series} drifted after resume"
    assert np.allclose(
        resumed.train_loss[1:],
        golden.train_loss[1:],
        rtol=1e-8,
        atol=1e-10,
    ), "train_loss drifted after resume"
    assert resumed.gamma_trace == golden.gamma_trace
    if eval_times:
        assert resumed.eval_times == golden.eval_times
    assert resumed.comm.total_bytes == golden.comm.total_bytes
    assert resumed.comm.worker_edge_rounds == golden.comm.worker_edge_rounds
    assert resumed.comm.edge_cloud_rounds == golden.comm.edge_cloud_rounds


def crash_then_resume(
    make_algorithm,
    directory,
    *,
    every,
    crash_at=CRASH_AT,
    plan=None,
    total=TOTAL_ITERATIONS,
    eval_every=EVAL_EVERY,
):
    """Run with an injected crash, then resume a fresh instance.

    Returns ``(resumed_history, resumed_algorithm, restored)``.
    """
    crash_plan = replace(
        plan or FaultPlan(), crash_iterations=(crash_at,)
    )
    crashing = make_algorithm()
    crashing.attach_faults(crash_plan)
    manager = CheckpointManager(directory, every=every)
    with pytest.raises(InjectedCrash) as crash:
        crashing.run(total, eval_every=eval_every, checkpoints=manager)
    assert crash.value.iteration == crash_at

    restored = manager.load_latest()
    assert restored is not None
    assert restored.iteration < crash_at

    resumed = make_algorithm()
    if plan is not None:
        # Re-attach the *numeric* faults only — never the crash.
        resumed.attach_faults(plan)
    history = resumed.run(
        total, eval_every=eval_every, resume_from=restored
    )
    return history, resumed, restored


class TestLockstepCrashResume:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_golden_battery_algorithm(self, name, tmp_path):
        cls, kwargs = ALGORITHMS[name]
        golden = cls(build_federation(), **kwargs).run(
            TOTAL_ITERATIONS, eval_every=EVAL_EVERY
        )
        history, _, restored = crash_then_resume(
            lambda: cls(build_federation(), **kwargs),
            tmp_path,
            every=CHECKPOINT_EVERY,
        )
        assert restored.iteration == 15  # last multiple of 5 before 17
        assert_bit_exact(golden, history)

    def test_resume_continues_numeric_fault_plan(self, tmp_path):
        """Probabilistic faults replay from the restored message
        sequence: golden (plan, no crash) == crashed (plan + crash)
        then resumed (plan, no crash)."""
        plan = FaultPlan(
            seed=9,
            worker_dropout=0.25,
            msg_staleness=0.25,
            staleness_intervals=2,
        )

        def make_algorithm():
            return HierAdMo(build_federation(), eta=0.05, tau=3, pi=2)

        golden_algo = make_algorithm()
        golden_algo.attach_faults(plan)
        golden = golden_algo.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)

        history, resumed, _ = crash_then_resume(
            make_algorithm, tmp_path, every=CHECKPOINT_EVERY, plan=plan
        )
        assert_bit_exact(golden, history)
        # Realized-event counters carry across the crash: restored
        # counts plus the replayed tail equal the uninterrupted run's.
        assert history.fault_summary == golden.fault_summary


class TestAsyncCrashResume:
    @pytest.mark.parametrize("name", sorted(ASYNC_CASES))
    def test_event_driven_algorithm(self, name, tmp_path):
        cls, kwargs = ASYNC_CASES[name]
        golden = cls(build_federation(), **kwargs).run(
            TOTAL_ITERATIONS, eval_every=EVAL_EVERY
        )
        history, _, restored = crash_then_resume(
            lambda: cls(build_federation(), **kwargs),
            tmp_path,
            every=6,
        )
        # Async checkpoints land on round barriers (multiples of tau).
        assert restored.iteration % kwargs["tau"] == 0
        assert_bit_exact(golden, history, eval_times=True)


class TestBatchNormCrashResume:
    def test_resnet_running_stats_resume_bit_exact(self, tmp_path):
        """BatchNorm running buffers live outside the flat parameter
        vector and advance every forward pass; resume must restore
        them too or the tail of the run drifts."""
        corpus = make_synthetic_cifar10(300, image_size=8, rng=0)
        split = train_test_split(corpus, 0.25, rng=1)

        def make_algorithm():
            train, test = split
            parts = partition_xclass(train, 4, 5, rng=2)
            model = make_resnet(
                "resnet10", 3, 10, width_multiplier=1 / 16, rng=5
            )
            federation = Federation(
                model, [parts[:2], parts[2:]], test, batch_size=8, seed=3
            )
            return HierAdMo(federation, eta=0.02, tau=2, pi=2)

        golden_algo = make_algorithm()
        golden = golden_algo.run(8, eval_every=4)
        history, resumed, restored = crash_then_resume(
            make_algorithm,
            tmp_path,
            every=3,
            crash_at=7,
            total=8,
            eval_every=4,
        )
        assert restored.iteration == 6
        assert_bit_exact(golden, history)
        _, golden_buffers = federation_state(golden_algo.fed)
        _, resumed_buffers = federation_state(resumed.fed)
        bn_keys = [k for k in golden_buffers if k.startswith("fed:bn")]
        assert bn_keys, "resnet federation exposes no BatchNorm buffers"
        for key in bn_keys:
            assert np.array_equal(
                golden_buffers[key], resumed_buffers[key]
            ), key
