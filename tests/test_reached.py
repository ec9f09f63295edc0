"""Every public name and public method is reached by a program, or
allowlisted with a reason.

A program is ``src/`` itself (the CLI included), ``examples/``,
``benchmarks/`` (``benchmarks/e2e`` included) and ``tools/``.  A program
file loads a name as an AST ``Name`` or ``Attribute`` in load context,
and loads an attribute as an ``Attribute`` or through ``getattr(x,
"name")`` with a constant name.  A public name is one in the ``__all__``
of a ``repro`` module; it is reached when a program loads it either way.
A public method is a method, static or class method, or property, not
named with an underscore, that a public ``repro`` class defines or
inherits from a ``repro`` class; it is reached when a program loads its
name as an attribute.  Definitions, imports and ``__all__`` strings are
not loads, so a name whose only caller is its own test fails here:
delete it, or give the reason it stays in :data:`ALLOWED` or
:data:`ALLOWED_METHODS`.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
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

# Public methods no program loads ("Class.method"), each with the reason
# it stays.
ALLOWED_METHODS = {
    "DescentTrace.alpha_bound_violations": _THEORY,
}

_METHOD_TYPES = (
    staticmethod, classmethod, property, functools.cached_property,
)


@functools.cache
def _loads() -> tuple[frozenset[str], frozenset[str]]:
    """(bare names, attribute names) that program files load."""
    names: set[str] = set()
    attributes: set[str] = set()
    for program in PROGRAMS:
        for path in sorted((ROOT / program).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Load
                ):
                    attributes.add(node.attr)
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("getattr", "hasattr")
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                ):
                    attributes.add(node.args[1].value)
    return frozenset(names), frozenset(attributes)


def loaded_names() -> set[str]:
    """Every name a program file loads, bare or as an attribute."""
    names, attributes = _loads()
    return set(names | attributes)


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


def public_methods() -> dict[str, str]:
    """``{"Class.method": module}`` over the public methods of every
    public ``repro`` class, keyed by the ``repro`` class defining each."""
    methods: dict[str, str] = {}
    for name, modules in public_names().items():
        cls = getattr(importlib.import_module(modules[0]), name)
        if not inspect.isclass(cls):
            continue
        for owner in cls.__mro__:
            if not owner.__module__.startswith("repro."):
                continue
            for attr, value in vars(owner).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(value)
                    or isinstance(value, _METHOD_TYPES)
                ):
                    methods.setdefault(
                        f"{owner.__qualname__}.{attr}", owner.__module__
                    )
    return methods


def _unreached_methods() -> set[str]:
    attributes = _loads()[1]
    return {
        method
        for method in public_methods()
        if method.rsplit(".", 1)[1] not in attributes
    }


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


def test_every_public_method_is_reached():
    methods = public_methods()
    unreached = sorted(
        f"{methods[method]}.{method}"
        for method in _unreached_methods() - set(ALLOWED_METHODS)
    )
    assert not unreached, (
        "public methods no program loads as an attribute (delete them, "
        f"or allowlist them with a reason): {unreached}"
    )


def test_method_allowlist_is_current():
    """Each allowed method is a public method and still unreached."""
    stale = sorted(set(ALLOWED_METHODS) - _unreached_methods())
    assert not stale, f"allowlisted methods that need no exemption: {stale}"
