"""Machine-readable bench results: merge entries into BENCH_<stem>.json.

Each bench test calls :func:`record_bench` with a stem (``batched``,
``telemetry``), an entry name and a JSON-able payload.  Entries merge
into ``BENCH_<stem>.json`` at the repo root, so re-running a single
bench refreshes only its own entry and the files double as the
committed performance record.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def record_bench(stem: str, entry: str, payload: dict) -> Path:
    """Merge ``payload`` under ``entry`` into ``BENCH_<stem>.json``."""
    path = REPO_ROOT / f"BENCH_{stem}.json"
    if path.exists():
        document = json.loads(path.read_text(encoding="utf-8"))
    else:
        document = {
            "bench": stem,
            "machine": {
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "entries": {},
        }
    document["entries"][entry] = payload
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
