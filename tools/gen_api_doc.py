"""Generate docs/api.md: an index of the public API with summaries.

Walks every public subpackage's ``__all__``, pulls each symbol's
docstring first line, and writes a grouped markdown index.

Run:  python tools/gen_api_doc.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

MODULES = [
    "repro",
    "repro.nn",
    "repro.nn.models",
    "repro.nn.schedulers",
    "repro.data",
    "repro.topology",
    "repro.core",
    "repro.algorithms",
    "repro.checkpoint",
    "repro.faults",
    "repro.simulation",
    "repro.population",
    "repro.compression",
    "repro.theory",
    "repro.telemetry",
    "repro.monitoring",
    "repro.metrics",
    "repro.experiments",
    "repro.utils",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return "(no docstring)"
    return doc.split("\n", 1)[0].strip()


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "func"
    if isinstance(obj, dict):
        return "dict"
    if isinstance(obj, (tuple, list)):
        return "const"
    return "const"


def main() -> None:
    lines = [
        "# Public API index",
        "",
        "Generated by `python tools/gen_api_doc.py` — one row per symbol",
        "in each public module's `__all__`.",
        "",
    ]
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        exported = getattr(module, "__all__", [])
        if not exported:
            continue
        lines.append(f"## `{module_name}`")
        module_doc = first_line(module)
        lines.append(f"\n{module_doc}\n")
        lines.append("| symbol | kind | summary |")
        lines.append("|---|---|---|")
        for name in exported:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                summary = first_line(obj)
            else:
                summary = f"value of type `{type(obj).__name__}`"
            summary = summary.replace("|", "\\|")
            lines.append(f"| `{name}` | {kind_of(obj)} | {summary} |")
        lines.append("")

    out = Path(__file__).resolve().parent.parent / "docs" / "api.md"
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
