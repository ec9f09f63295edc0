"""Every public name is reached by a program, or allowlisted with a reason.

A program is ``src/`` itself (the CLI included), ``examples/``,
``benchmarks/`` (``benchmarks/e2e`` included) and ``tools/``.  A public
name is one in the ``__all__`` of a ``repro`` module; it is reached when
some file of a program loads it, as an AST ``Name`` or ``Attribute`` in
load context.  Definitions, imports and ``__all__`` strings are not
loads, so a name whose only caller is its own test fails here: delete
it, or give the reason it stays in :data:`ALLOWED`.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ("src", "benchmarks", "tools", "examples")

_THEORY = "repro.theory: an executable check that EXPERIMENTS.md cites"
_REAL = "repro.data.real: the documented path to the real corpora"
_READER = "reads a file the CLI writes"

# Public names no program loads, each with the reason it stays.
ALLOWED = {
    "moments_for_distribution": _THEORY,
    "estimate_mu": _THEORY,
    "cloud_virtual_gap_trace": _THEORY,
    "descent_trace": _THEORY,
    "write_idx": _REAL,
    "write_cifar10_binary": _REAL,
    "load_or_synthesize": _REAL,
    "load_history": _READER,
    "load_trace_jsonl": _READER,
}


def loaded_names() -> set[str]:
    """Every name a program file loads."""
    names: set[str] = set()
    for program in PROGRAMS:
        for path in sorted((ROOT / program).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    names.add(node.attr)
    return names


def repro_modules() -> list[str]:
    """Every ``repro`` module, packages and their submodules alike."""
    return ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        # Importing the entry point would run the CLI.
        if not info.name.endswith(".__main__")
    ]


def public_names() -> dict[str, list[str]]:
    """``{name: [modules whose __all__ lists it]}`` over all of repro."""
    names: dict[str, list[str]] = {}
    for module in repro_modules():
        for name in getattr(importlib.import_module(module), "__all__", ()):
            names.setdefault(name, []).append(module)
    return names


def test_every_public_name_is_reached():
    loaded = loaded_names()
    unreached = {
        name: modules
        for name, modules in public_names().items()
        if name not in loaded and name not in ALLOWED
    }
    assert not unreached, (
        "public names no program loads (delete them, or allowlist them "
        f"with a reason): {unreached}"
    )


def test_allowlist_is_current():
    """Each allowed name is public and still unreached."""
    public = public_names()
    loaded = loaded_names()
    stale = sorted(
        name for name in ALLOWED if name not in public or name in loaded
    )
    assert not stale, f"allowlisted names that need no exemption: {stale}"
