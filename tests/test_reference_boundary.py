"""``repro.reference`` holds test oracles; the serving stack never loads it."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"
PRODUCTION = ("server", "protocol", "durability", "replication", "storage")


def _imports_reference(path: pathlib.Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [
                f"{node.module or ''}.{alias.name}" for alias in node.names
            ]
        else:
            continue
        if any("reference" in name.split(".") for name in names):
            return True
    return False


def test_production_packages_do_not_import_reference():
    offenders = [
        str(path.relative_to(SRC))
        for package in PRODUCTION
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        if _imports_reference(path)
    ]
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
