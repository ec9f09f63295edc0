"""Seeded fault injection and degradation-aware aggregation.

The paper's Algorithm 1 assumes perfectly synchronous worker–edge–cloud
rounds; real multi-tier networks drop workers, lose messages and dark
whole edge nodes.  This package makes those failures *first-class and
replayable*:

* :class:`FaultPlan` — a declarative, seeded description of the failure
  processes (worker dropout, edge outage, message loss / duplication /
  staleness, scripted outage windows);
* :class:`FaultInjector` — the deterministic runtime realization,
  attached to any algorithm via
  :meth:`repro.core.base.FLAlgorithm.attach_faults`;
* :func:`degrade_round` — the shared aggregation-membership resolver
  applying a degradation policy (``renormalize`` / ``carry_forward`` /
  ``skip_round``) so every algorithm survives absences the same,
  well-defined way.

An all-zero plan is a strict no-op (bit-exact trajectories, ≤2%
overhead — enforced by ``benchmarks/bench_faults.py``); any plan is
replayable from its seed alone.  See ``docs/architecture.md`` §10.
"""

from repro.faults.injector import (
    NO_TRANSFER_FAULTS,
    FaultInjector,
    InjectedCrash,
    TransferOutcome,
)
from repro.faults.plan import DEGRADATION_POLICIES, FaultPlan, check_policy
from repro.faults.rounds import (
    EVERYONE,
    RoundOutcome,
    block_rows,
    degrade_round,
)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "InjectedCrash",
    "TransferOutcome",
    "NO_TRANSFER_FAULTS",
    "DEGRADATION_POLICIES",
    "check_policy",
    "RoundOutcome",
    "EVERYONE",
    "block_rows",
    "degrade_round",
]
