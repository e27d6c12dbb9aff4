"""Tests for relative-commit undo (§5.1's alternative option)."""

from __future__ import annotations

import pytest

from repro.core import Domain, Predicate, Schema, Spec
from repro.errors import ProtocolError
from repro.obs import RecordingTracer
from repro.protocol import Outcome, TransactionManager, TxnPhase
from repro.storage import Database


@pytest.fixture
def db():
    schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))
    return Database(
        schema,
        Predicate.parse("x >= 0 & y >= 0"),
        {"x": 10, "y": 20},
    )


@pytest.fixture
def tm(db):
    return TransactionManager(db)


def _spec(i="true", o="true"):
    return Spec(Predicate.parse(i), Predicate.parse(o))


class TestUndoRelativeCommit:
    def test_undo_withdraws_released_writes(self, tm):
        txn = tm.define(tm.root, _spec(), {"x"})
        tm.validate(txn)
        tm.write(txn, "x", 99)
        tm.commit(txn)
        assert tm.view(tm.root)["x"] == 99
        result = tm.undo_relative_commit(txn)
        assert result.outcome is Outcome.OK
        assert tm.phase(txn) is TxnPhase.VALIDATED
        assert tm.view(tm.root)["x"] == 10  # withdrawn

    def test_recommit_after_undo(self, tm):
        txn = tm.define(tm.root, _spec(), {"x"})
        tm.validate(txn)
        tm.write(txn, "x", 99)
        tm.commit(txn)
        tm.undo_relative_commit(txn)
        assert tm.commit(txn).outcome is Outcome.OK
        assert tm.view(tm.root)["x"] == 99

    def test_other_children_releases_survive(self, tm):
        a = tm.define(tm.root, _spec(), {"x"})
        b = tm.define(tm.root, _spec(), {"y"})
        for txn in (a, b):
            tm.validate(txn)
        tm.write(a, "x", 99)
        tm.write(b, "y", 88)
        tm.commit(a)
        tm.commit(b)
        tm.undo_relative_commit(a)
        view = tm.view(tm.root)
        assert view["x"] == 10
        assert view["y"] == 88  # b's release untouched

    def test_cannot_undo_uncommitted(self, tm):
        txn = tm.define(tm.root, _spec(), {"x"})
        tm.validate(txn)
        result = tm.undo_relative_commit(txn)
        assert result.outcome is Outcome.FAILED

    def test_cannot_undo_after_parent_committed(self, tm):
        parent = tm.define(tm.root, _spec(), {"x"})
        tm.validate(parent)
        child = tm.define(parent, _spec(), {"x"})
        tm.validate(child)
        tm.write(child, "x", 99)
        tm.commit(child)
        tm.commit(parent)
        result = tm.undo_relative_commit(child)
        assert result.outcome is Outcome.FAILED
        assert "no longer relative" in result.reason

    def test_root_commit_is_absolute(self, tm):
        tm.commit(tm.root)
        result = tm.undo_relative_commit(tm.root)
        assert result.outcome is Outcome.FAILED

    def test_event_logged(self, tm):
        tracer = RecordingTracer()
        tm.set_tracer(tracer)
        txn = tm.define(tm.root, _spec(), {"x"})
        tm.validate(txn)
        tm.commit(txn)
        tm.undo_relative_commit(txn)
        assert len(tracer.of_kind("undo-commit")) == 1


class TestDefineWithUndo:
    def test_prohibition_remains_the_default(self, tm):
        reader = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(reader)
        tm.read(reader, "x")
        tm.commit(reader)
        with pytest.raises(ProtocolError):
            tm.define(tm.root, _spec(), {"x"}, successors=[reader])

    def test_undo_option_allows_the_construction(self, tm):
        reader = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(reader)
        tm.read(reader, "x")
        tm.commit(reader)
        writer = tm.define(
            tm.root,
            _spec(),
            {"x"},
            successors=[reader],
            undo_committed_successors=True,
        )
        # The committed reader was rolled back to VALIDATED…
        assert tm.phase(reader) is TxnPhase.VALIDATED
        # …and the new transaction precedes it in the partial order.
        assert tm.state.index(tm.root).precedes(writer, reader)
        # The reader cannot recommit before its new predecessor.
        assert tm.commit(reader).outcome is Outcome.FAILED
        tm.validate(writer)
        tm.commit(writer)
        assert tm.commit(reader).outcome is Outcome.OK

    def test_undone_stale_reader_invalidated_by_new_predecessor(self, tm):
        # The safety property the undo path must keep: the undone
        # reader re-holds its read locks, so a write by the newly
        # placed predecessor triggers Figure-4 and aborts it.
        reader = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(reader)
        tm.read(reader, "x")
        tm.commit(reader)
        writer = tm.define(
            tm.root,
            _spec(),
            {"x"},
            successors=[reader],
            undo_committed_successors=True,
        )
        tm.validate(writer)
        result = tm.write(writer, "x", 42)
        assert reader in result.aborted
        assert tm.phase(reader) is TxnPhase.ABORTED
