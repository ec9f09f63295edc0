"""Best-of-repeats timers shared by the overhead, speed-up and
throughput benches, and the exact call counter behind the
null-instrumentation gates."""

from __future__ import annotations

import os
import sys
import time


def time_interleaved(fns, repeats=15, iters=20) -> list[list[float]]:
    """Mean iteration time of each function, one value per repeat.

    The repeats alternate between the functions, so a slow stretch of
    the machine hits all of them instead of one.  Callers take the
    ``min`` of a list as the function's time (robust to scheduler
    noise); the repeats of two functions pair up for a spread.
    """
    times: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for runs, fn in zip(times, fns):
            start = time.perf_counter()
            for _ in range(iters):
                fn()
            runs.append((time.perf_counter() - start) / iters)
    return times


def time_min(fn, repeats=9, iters=20) -> float:
    """Best-of-repeats mean iteration time of one function."""
    return min(time_interleaved([fn], repeats, iters)[0])


def rate_per_probe(measure, runs=3) -> tuple[float, float, float]:
    """Throughput normalized to the machine: ``(per_probe, rate, probe)``.

    ``measure()`` does the work once and returns ``(events, seconds)``.
    Each of the ``runs`` calls is bracketed by two readings of the
    pure-Python probe loop of :func:`benchmarks.e2e.child.probe`, whose
    mean is the machine's speed during that call.  The call's rate times
    that probe is the events handled in one probe loop: a host that is
    slower at the moment slows both, so a gate can compare ``per_probe``
    with a number recorded at another time.  Returns the best call's
    ``per_probe``, its events per second and its probe seconds.
    """
    from benchmarks.e2e.child import probe

    best = None
    for _ in range(runs):
        before = probe()
        events, seconds = measure()
        probe_seconds = (before + probe()) / 2
        rate = events / seconds
        if best is None or rate * probe_seconds > best[0]:
            best = (rate * probe_seconds, rate, probe_seconds)
    return best


def calls_into(paths: tuple[str, ...], run) -> int:
    """Python calls into files under ``paths`` while ``run()`` runs.

    Counted with :func:`sys.setprofile`: every function entered whose
    code file starts with one of ``paths``.  The count is exact on any
    host, so one more call on the measured path moves it.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(paths):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def instrumentation_calls(algo) -> int:
    """Python calls into the instrumentation modules in one ``algo._step``.

    Two steps warm the algorithm up, then the third is counted with
    :func:`calls_into`: every function entered whose code lives in
    ``repro/telemetry/tracer.py`` or ``repro/monitoring/`` (the slot's
    getter, spans, the null object's methods, the hub).
    """
    from repro.monitoring import monitor
    from repro.telemetry import tracer

    monitoring_dir = os.path.dirname(monitor.__file__) + os.sep
    algo._step(1)
    algo._step(2)
    return calls_into((tracer.__file__, monitoring_dir), lambda: algo._step(3))
