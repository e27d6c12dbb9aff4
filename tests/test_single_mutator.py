"""``ProtocolState.apply`` is the only code that changes protocol state.

An AST scan of the serving stack: outside ``protocol/state.py`` nothing
under ``protocol/``, ``durability/``, ``replication/`` or ``server/``
assigns to, or mutates in place, an attribute named like a
:class:`TxnRecord` field, and nothing writes to or expunges from the
version store.  The dynamic twin of this test is replay ≡ live
(``tests/durability/shadow.py``).
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib

from repro.protocol.state import TxnRecord

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"
PACKAGES = ("protocol", "durability", "replication", "server")
STATE_MODULE = SRC / "protocol" / "state.py"

FIELDS = {field.name for field in dataclasses.fields(TxnRecord)}
MUTATORS = {
    "add",
    "append",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}
STORE_NAMES = {"store", "_store", "db", "_db", "database", "_database"}
STORE_MUTATORS = {"write", "expunge", "expunge_author", "prune"}

#: ``{class name: {attribute, ...}}`` — classes allowed a same-named
#: ``self.x`` of their own because they are not transaction records.
#: Empty today: nothing in the scanned packages needs it.
OWN_ATTRIBUTES: dict[str, set[str]] = {}


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _Scan(ast.NodeVisitor):
    def __init__(self, path: pathlib.Path) -> None:
        self.path = path
        self.classes: list[str] = []
        self.offenders: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def _is_record_field(self, node: ast.expr) -> bool:
        """``<something>.<field>`` that is not a class's own attribute."""
        if not isinstance(node, ast.Attribute) or node.attr not in FIELDS:
            return False
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "self":
            own = OWN_ATTRIBUTES.get(self.classes[-1] if self.classes else "")
            return own is None or node.attr not in own
        return True

    def _flag(self, node: ast.AST, what: str) -> None:
        where = self.path.relative_to(SRC)
        self.offenders.append(f"{where}:{node.lineno}: {what}")

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
        elif isinstance(target, ast.Starred):
            self._check_target(target.value)
        elif self._is_record_field(target):
            self._flag(target, f"stores to .{target.attr}")
        elif isinstance(target, ast.Subscript) and self._is_record_field(
            target.value
        ):
            self._flag(target, f"stores into .{target.value.attr}[...]")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in MUTATORS and self._is_record_field(func.value):
                self._flag(
                    node, f"mutates .{func.value.attr} via .{func.attr}()"
                )
            if (
                func.attr in STORE_MUTATORS
                and _terminal_name(func.value) in STORE_NAMES
            ):
                self._flag(node, f"calls {func.attr}() on the version store")
        self.generic_visit(node)


def _scan(path: pathlib.Path) -> list[str]:
    scan = _Scan(path)
    scan.visit(ast.parse(path.read_text(encoding="utf-8")))
    return scan.offenders


def test_only_the_state_module_mutates_protocol_state():
    offenders = [
        offender
        for package in PACKAGES
        for path in sorted((SRC / package).rglob("*.py"))
        if path != STATE_MODULE
        for offender in _scan(path)
    ]
    assert offenders == []


def test_the_scan_sees_the_state_module_mutate():
    """The scan is not vacuous: pointed at ``apply`` it finds plenty."""
    found = _scan(STATE_MODULE)
    assert any("stores to .phase" in offender for offender in found)
    assert any(".read_items via .add()" in offender for offender in found)
    assert any("write() on the version store" in o for o in found)


def test_apply_handlers_have_one_home():
    homes = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "def _apply_" in path.read_text(encoding="utf-8")
    ]
    assert homes == ["protocol/state.py"]
