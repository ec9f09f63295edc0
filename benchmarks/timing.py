"""Best-of-repeats timers shared by the overhead and speed-up benches."""

from __future__ import annotations

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
