"""The workload model stands alone, and ``repro serve`` stays light.

Follows ``tests/test_reference_boundary.py``: an AST check on the
model's own imports, and a fresh interpreter that performs exactly the
imports ``repro serve`` performs.
"""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parents[2] / "src"
MODEL = ("__init__.py", "model.py", "families.py")
#: What the model may not import, and what ``repro serve`` may not load.
FORBIDDEN = ("repro.server", "repro.sim", "repro.baselines")
SERVE_FORBIDDEN = (
    "repro.sim",
    "repro.baselines",
    "repro.fuzz",
    "repro.des",
    "repro.workload.driver",
)


def _absolute(node: ast.ImportFrom) -> str:
    """``from ..server import X`` in ``repro.workload`` → ``repro.server``."""
    if not node.level:
        return node.module or ""
    base = ["repro", "workload"][: 3 - node.level]
    return ".".join(base + ([node.module] if node.module else []))


def _under(name: str, packages: tuple[str, ...]) -> bool:
    return any(name == p or name.startswith(p + ".") for p in packages)


def test_model_and_families_import_no_server_sim_or_baselines():
    offenders = []
    for filename in MODEL:
        path = SRC / "repro" / "workload" / filename
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [_absolute(node)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{filename}: {name}"
                for name in names
                if _under(name, FORBIDDEN)
            ]
    assert offenders == []


def _serve_imports() -> list[str]:
    """The import statements of the ``serve`` command, made absolute."""
    path = SRC / "repro" / "cli" / "service.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    serve = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "serve"
    )
    statements = []
    for node in ast.walk(serve):
        if isinstance(node, ast.ImportFrom) and node.level:
            node = ast.ImportFrom(
                module=f"repro.{node.module}", names=node.names, level=0
            )
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            statements.append(ast.unparse(node))
    return statements


def test_repro_serve_loads_no_sim_baselines_fuzz_des_or_driver():
    imports = _serve_imports()
    assert any("build_workload" in line for line in imports), imports
    code = "\n".join(
        [
            "import sys",
            "import repro.cli",
            *imports,
            # serve builds its schema from the workload generator.
            "build_workload('cad', transactions=16).fresh_database()",
            f"forbidden = {SERVE_FORBIDDEN!r}",
            "loaded = sorted(m for m in sys.modules if any(",
            "    m == p or m.startswith(p + '.') for p in forbidden))",
            "assert not loaded, loaded",
        ]
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={"PYTHONPATH": str(SRC)},
        timeout=60,
    )
