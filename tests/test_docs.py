"""Guards: the documentation references real, importable symbols."""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

DOCS_ROOT = pathlib.Path(__file__).parent.parent

_MODULE_RE = re.compile(r"`(repro(?:\.[a-z_0-9]+)+)")


def _documented_modules(name: str) -> set[str]:
    text = (DOCS_ROOT / name).read_text(encoding="utf-8")
    modules = set()
    for match in _MODULE_RE.finditer(text):
        dotted = match.group(1)
        # Trim trailing attribute parts until something imports.
        modules.add(dotted)
    return modules


@pytest.mark.parametrize(
    "doc",
    [
        "README.md",
        "DESIGN.md",
        "docs/paper_map.md",
        "docs/performance.md",
        "docs/protocol.md",
        "docs/observability.md",
        "docs/durability.md",
        "docs/fuzzing.md",
        "docs/server.md",
        "docs/replication.md",
        "docs/simulation.md",
    ],
)
def test_referenced_modules_exist(doc):
    for dotted in _documented_modules(doc):
        parts = dotted.split(".")
        # The reference may be module.attr or module.Class.method:
        # peel from the right until an import succeeds, then resolve
        # the remainder as attributes.
        for split in range(len(parts), 0, -1):
            module_name = ".".join(parts[:split])
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            obj = module
            ok = True
            for attr in parts[split:]:
                if not hasattr(obj, attr):
                    ok = False
                    break
                obj = getattr(obj, attr)
            assert ok, f"{doc}: {dotted} has missing attribute path"
            break
        else:
            raise AssertionError(f"{doc}: cannot import {dotted}")


def test_experiment_ids_consistent():
    """Every experiment id in DESIGN's index appears in EXPERIMENTS."""
    design = (DOCS_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    experiments = (DOCS_ROOT / "EXPERIMENTS.md").read_text(
        encoding="utf-8"
    )
    index_ids = set(
        re.findall(r"^\| (E\d|F\d|L\d|T\d|P\d|D\d|R\d|M\d) \|",
                   design, re.MULTILINE)
    )
    assert index_ids, "DESIGN.md experiment index not found"
    for exp_id in sorted(index_ids):
        assert f"## {exp_id} " in experiments or f"{exp_id} —" in (
            experiments
        ), f"{exp_id} missing from EXPERIMENTS.md"


def test_examples_listed_in_readme_exist():
    readme = (DOCS_ROOT / "README.md").read_text(encoding="utf-8")
    for name in re.findall(r"`([a-z_]+\.py)`", readme):
        if name in ("setup.py",):
            continue
        assert (DOCS_ROOT / "examples" / name).exists(), name


def test_benchmark_paths_in_docs_exist():
    """Every ``benchmarks/…py`` a doc names is a file in the tree."""
    docs = [DOCS_ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    docs += sorted((DOCS_ROOT / "docs").glob("*.md"))
    named = {
        (doc.name, path)
        for doc in docs
        for path in re.findall(
            r"benchmarks/[\w/]+\.py", doc.read_text(encoding="utf-8")
        )
    }
    assert named, "no benchmark paths found in the docs"
    missing = sorted(
        f"{doc}: {path}"
        for doc, path in named
        if not (DOCS_ROOT / path).is_file()
    )
    assert not missing, missing


def test_server_operations_table_is_the_op_table():
    """docs/server.md lists every op with exactly its parameters."""
    from repro.server.protocol import OPS, REQUIRED

    text = (DOCS_ROOT / "docs/server.md").read_text(encoding="utf-8")
    table = text.split("### Operations", 1)[1].split("\n\n", 2)[1]
    documented = {}
    for row in table.splitlines()[2:]:
        op, params = [cell.strip() for cell in row.split("|")[1:3]]
        documented[op.strip("`")] = re.findall(r"`([^`]+)`", params)
    assert documented == {
        op: [
            param.name + ("" if param.default is REQUIRED else "?")
            for param in spec.params
        ]
        for op, spec in OPS.items()
    }
    assert list(documented) == list(OPS)  # same order, too
