"""The workload model: one predicate formatter, one script conversion."""

from __future__ import annotations

import ast
import pathlib
import re

from repro.workload import Bump, Read, Write, cad_workload, predicate_text

SRC = pathlib.Path(__file__).parents[2] / "src"

#: A literal generated predicate such as ``"x >= 0 & y >= 0"``.
_LITERAL = re.compile(r"[A-Za-z_]\w* >= 0( & [A-Za-z_]\w* >= 0)*")


def _builds_terms(node: ast.AST) -> bool:
    """An ``f"{e} >= 0"`` term or a literal ``"e >= 0 & ..."``."""
    if isinstance(node, ast.JoinedStr):
        parts = node.values
        return any(
            isinstance(value, ast.FormattedValue)
            and isinstance(after, ast.Constant)
            and str(after.value).startswith(" >= 0")
            for value, after in zip(parts, parts[1:])
        )
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _LITERAL.fullmatch(node.value) is not None
    )


def _joins_conjuncts(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "join"
        and isinstance(node.func.value, ast.Constant)
        and node.func.value.value == " & "
    )


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_nodes(func: ast.AST):
    """The function's nodes, not descending into nested functions."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _functions_where(predicate) -> list[str]:
    """``path:function`` of every function whose own code matches."""
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if isinstance(func, _FUNCTIONS) and any(
                predicate(node) for node in _own_nodes(func)
            ):
                relative = path.relative_to(SRC).as_posix()
                found.append(f"{relative}:{func.name}")
    return found


def test_exactly_one_function_formats_generated_predicates():
    formatter = "repro/workload/model.py:predicate_text"
    assert _functions_where(_builds_terms) == [formatter]
    assert formatter in _functions_where(_joins_conjuncts)


def test_predicate_text_keeps_order_and_bounds():
    assert predicate_text(["y", "x"]) == "y >= 0 & x >= 0"
    assert predicate_text(()) == "true"
    assert predicate_text(["x"], [("x", 2)]) == "x >= 0 & x <= 2"


def test_to_txn_reads_the_bump_fields():
    script = next(
        script
        for script in cad_workload(num_designers=20, seed=5).scripts
        if any(isinstance(step, Write) for step in script.steps)
    )
    txn = script.to_txn()
    reads = sorted(script.read_entities)
    writes = sorted(script.write_entities)
    assert txn.label == script.txn_id
    assert txn.updates == writes
    assert txn.input == predicate_text(reads)
    assert txn.output == predicate_text(writes)
    assert txn.predecessors == list(script.predecessors)
    assert txn.ops[-1] == ["commit"]
    accesses = [op for op in txn.ops if op[0] in ("read", "bump")]
    assert len(accesses) == len(script.flat_accesses())
    for op, step in zip(accesses, script.flat_accesses()):
        if isinstance(step, Read):
            assert op == ["read", step.entity]
        else:
            bump = step.value
            assert isinstance(bump, Bump)
            assert op == [
                "bump", step.entity, bump.source, bump.delta, bump.high,
                step.duration,
            ]
            # The callable form the simulator resolves agrees.
            assert step.resolve({bump.source: 7}) == min(
                bump.high, 7 + bump.delta
            )
