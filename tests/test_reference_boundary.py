"""Package layering, read from the import graph.

The paper's small model stays at the bottom: ``core``, ``sat``,
``schedules`` and ``obs`` import nothing above them, ``storage`` sits
on ``core``, and the Section-5 ``protocol`` sees only ``core``,
``storage``, ``obs`` and ``errors``.  ``repro.reference`` holds test
oracles; the serving stack never imports or loads it.

Every ``import`` counts, including lazy ones inside functions.
"""

from __future__ import annotations

import ast
import functools
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"
PRODUCTION = ("server", "protocol", "durability", "replication", "storage")

#: The ``repro`` packages each lower package may import (besides its
#: own modules).
ALLOWED = {
    "core": {"errors"},
    "sat": {"core", "errors"},
    "schedules": {"core", "errors"},
    "obs": {"errors"},
    "storage": {"core", "errors"},
    "protocol": {"core", "storage", "obs", "errors"},
}

#: Today's back-edges, ``(module, package it imports)``.  This list may
#: only shrink: an entry whose edge is gone fails the test until it is
#: deleted.
BACK_EDGES: set[tuple[str, str]] = set()


def _module_name(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: pathlib.Path) -> set[str]:
    """Absolute ``repro.*`` names one file imports (relative imports
    resolved; ``from m import n`` yields both ``m`` and ``m.n``)."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + [node.module] if node.module else base)
            else:
                module = node.module or ""
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return {name for name in names if name.startswith("repro.")}


@functools.cache
def _package_edges() -> frozenset[tuple[str, str, str]]:
    """``(module, its package, repro package it imports)`` for every
    import that crosses packages (the ``repro`` facade excluded)."""
    edges = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if module == "repro":
            continue
        own = module.split(".")[1]
        for name in _imports(path):
            target = name.split(".")[1]
            if target != own:
                edges.add((module, own, target))
    return frozenset(edges)


def test_lower_packages_import_only_what_is_below_them():
    offenders = sorted(
        (module, target)
        for module, own, target in _package_edges()
        if own in ALLOWED
        and target not in ALLOWED[own]
        and (module, target) not in BACK_EDGES
    )
    assert offenders == []


def test_back_edge_allow_list_only_shrinks():
    edges = {(module, target) for module, _, target in _package_edges()}
    assert BACK_EDGES <= edges


def test_production_packages_do_not_import_reference():
    offenders = sorted(
        module
        for module, own, target in _package_edges()
        if own in PRODUCTION and target == "reference"
    )
    assert offenders == []


def test_importing_the_serving_stack_does_not_load_reference():
    modules = ", ".join(f"repro.{package}" for package in PRODUCTION)
    code = (
        f"import sys, repro, repro.cli, {modules}\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.reference')]\n"
        "assert not loaded, loaded\n"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
    )
