"""Pluggable destinations for the run-event stream.

A sink receives every :class:`~repro.monitoring.events.RunEvent` the
hub dispatches, in emission order.  Two implementations cover the
monitoring use cases:

* :class:`RingBufferSink` — bounded in-memory history (the dashboard's
  data source for in-process monitoring, and the cheap default for
  tests);
* :class:`JSONLStreamSink` — line-buffered streaming JSONL file: every
  event is a complete line the moment ``emit`` returns, so a concurrent
  ``repro monitor`` (or ``tail -f``) always reads whole records.

Sinks must never mutate the event and must not raise on ``close`` being
called twice (run teardown paths overlap).
"""

from __future__ import annotations

from collections import deque
from pathlib import Path

from repro.monitoring.events import RunEvent

__all__ = [
    "EventSink",
    "RingBufferSink",
    "JSONLStreamSink",
    "load_events_jsonl",
]

# Events a RingBufferSink holds before the oldest fall off.
RING_CAPACITY = 4096


class EventSink:
    """Abstract event destination."""

    def emit(self, event: RunEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; idempotent."""


class RingBufferSink(EventSink):
    """Keep the last :data:`RING_CAPACITY` events in memory."""

    def __init__(self):
        self.events: deque[RunEvent] = deque(maxlen=RING_CAPACITY)
        self.emitted = 0

    def emit(self, event: RunEvent) -> None:
        self.events.append(event)
        self.emitted += 1

    @property
    def dropped(self) -> int:
        """Events that fell off the ring's old end."""
        return self.emitted - len(self.events)

    def snapshot(self) -> list[RunEvent]:
        """The buffered events, oldest first."""
        return list(self.events)


class JSONLStreamSink(EventSink):
    """Stream events to a JSONL file, one complete line per emit.

    The file is opened line-buffered, so each event reaches the OS as
    soon as it is emitted — a live ``repro monitor`` tailing the path
    sees every record without waiting for a block buffer to fill.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # buffering=1: line buffered (flushed at each "\n").
        self._file = self.path.open("w", buffering=1, encoding="utf-8")
        self.emitted = 0

    def emit(self, event: RunEvent) -> None:
        if self._file is None:
            raise ValueError(f"sink for {self.path} is closed")
        self._file.write(event.to_json() + "\n")
        self.emitted += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def load_events_jsonl(path: str | Path) -> list[RunEvent]:
    """Read a (possibly still-growing) JSONL event stream.

    Only the final line may fail to parse — the writer mid-emit — and it
    is skipped, so a live dashboard refresh never crashes on a partial
    record.  A bad line anywhere else raises: the file is damaged.
    """
    events: list[RunEvent] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(RunEvent.from_json(line))
        except ValueError:
            if index == len(lines) - 1:
                break
            raise
    return events
