"""Shared benchmark helpers.

Every bench runs its experiment exactly once via ``run_once`` (the
experiments are minutes-scale; statistical repetition belongs to the
overhead micro-benchmarks such as bench_telemetry.py) and prints the
paper-style table so the run log doubles as the reproduction record.
"""

from __future__ import annotations


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)
