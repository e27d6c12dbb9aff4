"""A parent's world view holds the versions its children released.

A world view of values had to be turned back into versions by scanning
the store for the youngest version with a released value, so a
same-valued write by a transaction outside the releaser's subtree could
stand in for the release.  The first tests hold the release itself.
The last ones fix the reading of §3.1 that decides what a nested parent
offers for an item it never validated (docs/paper_map.md): a parent's
version state covers every entity, so it offers its own parent's
version.
"""

from __future__ import annotations

import pytest

from repro.core import (
    DatabaseState,
    Domain,
    Effect,
    Execution,
    LeafTransaction,
    NestedTransaction,
    Predicate,
    Schema,
    Spec,
    TxnName,
    VersionState,
)
from repro.durability import DurableTransactionManager, recover
from repro.durability.snapshot import CheckpointStore
from repro.errors import ProtocolError
from repro.protocol import Outcome, ProtocolState, TransactionManager
from repro.storage import Database


def _database() -> Database:
    schema = Schema.of("x", "y", domain=Domain.interval(0, 100))
    return Database(
        schema, Predicate.parse("x >= 0 & y >= 0"), {"x": 1, "y": 1}
    )


def _spec(text: str = "true") -> Spec:
    return Spec(Predicate.parse(text), Predicate.true())


def _leaf(tm, parent, entity, value=None, commit=True):
    """Define and validate a leaf reading ``entity``; write ``value``
    to it if given; commit it if asked."""
    updates = {entity} if value is not None else set()
    name = tm.define(parent, _spec(f"{entity} >= 0"), updates)
    assert tm.validate(name).outcome is Outcome.OK
    tm.read(name, entity)
    if value is not None:
        tm.write(name, entity, value)
    if commit:
        assert tm.commit(name).outcome is Outcome.OK
    return name


def _nested_by_value(tm):
    """``t.0``'s child commits x=5; the uncommitted root child ``t.1``
    then writes 5 too."""
    nest = tm.define(tm.root, _spec(), {"x"})
    tm.validate(nest)
    released = _leaf(tm, nest, "x", 5)
    _leaf(tm, tm.root, "x", 5, commit=False)
    return nest, tm.record(released).writes["x"]


def test_a_nested_child_is_never_assigned_an_outsiders_version():
    tm = TransactionManager(_database())
    nest, released = _nested_by_value(tm)
    reader = _leaf(tm, nest, "x")
    assert tm.record(reader).assigned["x"] == released
    assert tm.verify_parent_based(nest) == []
    assert tm.record(nest).world["x"] == released


def test_the_root_world_holds_the_releasers_version():
    tm = TransactionManager(_database())
    first = _leaf(tm, tm.root, "x", 5)
    _leaf(tm, tm.root, "x", 5, commit=False)
    released = tm.record(first).writes["x"]
    assert tm._parent_world_version(tm.root, "x") == released
    assert tm.state.root_view()["x"] == 5


def test_a_checkpoint_mid_nested_session_reloads_the_same_world(tmp_path):
    tm, __ = DurableTransactionManager.open(tmp_path / "wal", _database)
    nest, __ = _nested_by_value(tm)
    _leaf(tm, nest, "y", 9)
    inner = tm.define(nest, _spec(), {"x", "y"})
    tm.validate(inner)
    _leaf(tm, inner, "x", 7)
    _leaf(tm, inner, "y", 9, commit=False)  # in flight
    tm.checkpoint()
    payload, __ = CheckpointStore(tmp_path / "wal").load_newest()
    loaded = ProtocolState.load(payload)
    for name, record in tm.state.records.items():
        again = loaded.records[name]
        assert again.world == record.world, name
        assert again.release_log == record.release_log, name
    assert loaded.records[nest].world["x"].author == f"{nest}.0"
    tm.close()


def _grandparent_read(tm):
    """``t.0`` commits x=3; nested ``t.1`` (``I: true``) gets a child
    that reads x, which ``t.1`` never validated."""
    writer = _leaf(tm, tm.root, "x", 3)
    nest = tm.define(tm.root, _spec(), set())
    tm.validate(nest)
    reader = _leaf(tm, nest, "x")
    return writer, nest, reader


def test_a_nested_child_reads_what_the_grandparent_offers():
    tm = TransactionManager(_database())
    writer, nest, reader = _grandparent_read(tm)
    assigned = tm.record(reader).assigned["x"]
    assert assigned == tm.record(writer).writes["x"]
    assert tm.verify_parent_based(nest) == []
    assert tm.commit(nest).outcome is Outcome.OK
    assert tm.verify_parent_based(tm.root) == []

    # §3.1's definition agrees: X(t.1) is a version state over every
    # entity, here the root's world view, and the child's input state
    # takes x from it.
    schema = tm.database.schema
    offered = VersionState(schema, tm.view(tm.root))
    child = LeafTransaction(
        TxnName.parse(reader), schema, _spec("x >= 0"), Effect({})
    )
    parent = NestedTransaction.build(
        TxnName.parse(nest), schema, _spec(), [child], []
    )
    execution = Execution(
        parent,
        DatabaseState.single(tm.database.initial_state),
        [],
        {child.name: VersionState(schema, {**offered, "x": assigned.value})},
        offered,
    )
    assert execution.is_parent_based(offered)


def test_a_grandparent_read_restarts_verified(tmp_path):
    tm, __ = DurableTransactionManager.open(tmp_path / "wal", _database)
    __, nest, __ = _grandparent_read(tm)
    assert tm.commit(nest).outcome is Outcome.OK
    tm.flush()  # abandoned, like a SIGKILL
    result = recover(tmp_path / "wal", verify=True)
    assert result.verified, result.violations
    assert result.committed == ["t.0", "t.1.0", "t.1"]
    tm.close()


def test_a_read_through_the_parent_counts_when_ordering_it():
    tm = TransactionManager(_database())
    writer, nest, __ = _grandparent_read(tm)
    # The nest's child holds the writer's version, so the nest may not
    # come to precede the writer (rule (b) of ``define``).
    with pytest.raises(ProtocolError, match=f"cannot order {nest} before"):
        tm.define(
            tm.root, _spec(), set(), predecessors=[nest], successors=[writer]
        )
    assert tm.commit(nest).outcome is Outcome.OK
    assert tm.verify_parent_based(tm.root) == []
