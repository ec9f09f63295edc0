"""Process-memory introspection for the monitoring events and benches."""

from __future__ import annotations

import resource
import sys

__all__ = ["peak_rss_bytes", "current_rss_bytes"]


def peak_rss_bytes() -> int:
    """High-water-mark resident set size of this process, in bytes.

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux and in
    bytes on macOS; normalize to bytes.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


def current_rss_bytes() -> int:
    """Current resident set size in bytes (0 when /proc is unavailable).

    The population bench prefers the *current* RSS over the high-water
    mark: the 10k/100k/1M sweeps run in one process, and the peak would
    carry the largest population's footprint backwards.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # pragma: no cover - non-procfs platforms
        pass
    return 0
