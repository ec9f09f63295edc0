"""Property battery over seeded random fault plans (satellite S1).

Two layers:

* ``degrade_round`` invariants over 21 random plans — survivor weights
  always renormalize to 1, membership sets nest correctly, billing never
  undercounts — checked on every resolved round, untouched ones too;
* the no-fault resolution: every row selected, the caller's weights
  kept as they are, two transfer events billed per candidate;
* end-to-end finiteness — HierAdMo completes with finite losses and
  parameters under random nonzero plans for every degradation policy;
* the all-zero plan attached to every golden algorithm reproduces the
  seed trajectories at rtol 1e-8 (bit-exact fast path by construction).
"""

import numpy as np
import pytest

from repro.core import HierAdMo
from repro.faults import (
    DEGRADATION_POLICIES,
    FaultInjector,
    FaultPlan,
    degrade_round,
)

from tests.conftest import build_tiny_federation
from tests.integration.test_golden_trajectories import (
    ALGORITHMS as GOLDEN_ALGORITHMS,
    EVAL_EVERY,
    TOTAL_ITERATIONS,
    _load_goldens,
    build_federation,
    run_algorithm,
)

pytestmark = pytest.mark.faults


def random_plan(seed: int) -> FaultPlan:
    """A random nonzero plan drawn deterministically from ``seed``."""
    rng = np.random.default_rng(seed)
    return FaultPlan(
        seed=seed,
        worker_dropout=float(rng.uniform(0.05, 0.4)),
        edge_outage=float(rng.uniform(0.0, 0.3)),
        msg_loss=float(rng.uniform(0.0, 0.3)),
        msg_duplication=float(rng.uniform(0.0, 0.2)),
        msg_staleness=float(rng.uniform(0.0, 0.5)),
        staleness_intervals=int(rng.integers(1, 4)),
        max_retries=int(rng.integers(0, 5)),
    )


@pytest.mark.parametrize("seed", range(21))
def test_degrade_round_invariants(seed):
    """Membership/weight/billing invariants hold for random plans.

    Every outcome that is not skipped is checked, including the rounds
    no fault touched; selectors resolve through ``np.arange(count)``.
    """
    plan = random_plan(seed)
    injector = FaultInjector(plan, num_workers=10, num_edges=3)
    rng = np.random.default_rng(1000 + seed)
    for policy in DEGRADATION_POLICIES:
        for _ in range(8):
            count = int(rng.integers(2, 9))
            weights = rng.uniform(0.1, 1.0, count)
            weights /= weights.sum()
            up = rng.random(count) < 0.8
            if not up.any():
                up[0] = True
            outcome = degrade_round(
                injector, policy, weights, None if up.all() else up
            )
            if outcome.skip:
                continue
            rows = np.arange(count)
            agg = rows[outcome.agg_rows]
            present = rows[outcome.present]
            receivers = rows[outcome.receivers]
            # Survivor weights always form a convex combination.
            assert outcome.agg_weights.sum() == pytest.approx(1.0)
            assert (outcome.agg_weights >= 0).all()
            assert agg.shape == outcome.agg_weights.shape
            # present ⊆ available ∩ candidates, receivers ⊆ present.
            available = np.flatnonzero(up)
            assert np.isin(present, available).all()
            assert np.isin(receivers, present).all()
            # Billing covers at least every attempted upload.
            assert outcome.events >= available.size


@pytest.mark.parametrize(
    "plan", [None, FaultPlan(seed=3)], ids=["no-plan", "zero-plan"]
)
def test_untouched_round_selects_everyone(plan):
    """No injector (or the zero plan) resolves to every row, as is.

    The selectors are ``slice(None)`` (views of the stacked state), the
    weights are the caller's own vector, not renormalized, and the bill
    is one upload and one download per candidate.  The zero plan draws
    nothing and tallies nothing.
    """
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, num_workers=5, num_edges=2)
    weights = np.array([0.1, 0.2, 0.3, 0.25])  # sums to 0.85
    outcome = degrade_round(injector, "renormalize", weights, None)
    assert not outcome.skip
    rows = np.arange(weights.size)
    for selector in (outcome.agg_rows, outcome.present, outcome.receivers):
        assert selector == slice(None)
        assert np.array_equal(rows[selector], rows)
    assert outcome.agg_weights is weights
    assert outcome.events == 2 * weights.size
    if injector is not None:
        assert injector._msg_sequence == 0
        assert all(value == 0 for value in injector.counts.values())


@pytest.mark.parametrize("seed", range(7))
@pytest.mark.parametrize("policy", DEGRADATION_POLICIES)
def test_hieradmo_stays_finite_under_random_plans(
    seed, policy, mnist_split
):
    """Parameters and losses remain finite under every policy."""
    train, test = mnist_split
    algo = HierAdMo(
        build_tiny_federation(train, test), eta=0.05, tau=3, pi=2
    )
    algo.attach_faults(random_plan(100 + seed), policy=policy)
    history = algo.run(12, eval_every=6)
    assert np.isfinite(algo.x).all()
    assert np.isfinite(algo.y).all()
    assert np.isfinite(history.test_loss).all()
    assert np.isfinite(history.train_loss[1:]).all()
    summary = history.fault_summary
    assert summary["rounds"]["total"] == (
        summary["rounds"]["pristine"]
        + summary["rounds"]["degraded"]
        + summary["rounds"]["skipped"]
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_ALGORITHMS))
def test_zero_plan_reproduces_goldens(name):
    """The attached all-zero plan is a strict no-op for every algorithm."""
    golden = _load_goldens()[name]
    cls, kwargs = GOLDEN_ALGORITHMS[name]
    algorithm = cls(build_federation(), **kwargs)
    algorithm.attach_faults(FaultPlan(seed=5))
    history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    assert list(history.iterations) == golden["iterations"]
    for series in ("test_accuracy", "test_loss"):
        assert np.allclose(
            getattr(history, series), golden[series],
            rtol=1e-8, atol=1e-10,
        ), f"{name}.{series} perturbed by the zero-fault plan"
    assert np.allclose(
        history.train_loss[1:], golden["train_loss"][1:],
        rtol=1e-8, atol=1e-10,
    ), f"{name}.train_loss perturbed by the zero-fault plan"
    # The digest still reports (an all-pristine run with zero events).
    summary = history.fault_summary
    assert all(v == 0 for v in summary["events"].values())


def test_zero_plan_matches_unattached_run():
    """Attaching the zero plan is bit-identical to attaching nothing."""
    fresh = run_algorithm("HierAdMo")
    cls, kwargs = GOLDEN_ALGORITHMS["HierAdMo"]
    algorithm = cls(build_federation(), **kwargs)
    algorithm.attach_faults(FaultPlan())
    history = algorithm.run(TOTAL_ITERATIONS, eval_every=EVAL_EVERY)
    assert list(history.test_accuracy) == fresh["test_accuracy"]
    assert list(history.test_loss) == fresh["test_loss"]
