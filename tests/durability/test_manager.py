"""DurableTransactionManager tests: logging, checkpoint cadence, parity."""

from __future__ import annotations

import pytest

from repro.durability import DurableTransactionManager, recover
from repro.durability.records import (
    OP_ABORT,
    OP_REASSIGN,
    OP_UNDO_COMMIT,
    OP_VALIDATE,
    OP_WRITE,
)
from repro.durability.snapshot import CheckpointStore
from repro.durability.wal import scan_wal
from repro.errors import RecoveryError
from repro.protocol.scheduler import Outcome, TransactionManager

from .conftest import abort_cascade_session, make_database, run_leaf, spec


class TestLiveParity:
    def test_behaves_like_the_in_memory_manager(self, fresh_manager):
        reference = TransactionManager(make_database())
        for manager in (fresh_manager, reference):
            run_leaf(manager, "x", 11)
            run_leaf(manager, "y", 22)
            name = run_leaf(manager, "z", 33, commit=False)
            manager.abort(name)
        assert fresh_manager.view(fresh_manager.root) == reference.view(
            reference.root
        )

    def test_recovered_equals_live(self, wal_dir, fresh_manager):
        run_leaf(fresh_manager, "x", 11)
        doomed = run_leaf(fresh_manager, "y", 22, commit=False)
        fresh_manager.abort(doomed)
        run_leaf(fresh_manager, "y", 44)
        live_view = dict(fresh_manager.view(fresh_manager.root))
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert result.manager.view(result.manager.root) == live_view

    def test_fresh_open_requires_database_factory(self, wal_dir):
        with pytest.raises(RecoveryError, match="no database factory"):
            DurableTransactionManager.open(wal_dir)


class TestLoggedOperations:
    def test_write_logged_before_store_issues_stamp(
        self, wal_dir, fresh_manager
    ):
        run_leaf(fresh_manager, "x", 11)
        fresh_manager.flush()
        writes = [
            record
            for record in scan_wal(wal_dir).records
            if record.op == OP_WRITE
        ]
        assert len(writes) == 1
        version = fresh_manager.record("t.0").writes["x"]
        assert writes[0].data["sequence"] == version.sequence

    def test_rejected_write_is_not_logged(self, wal_dir, fresh_manager):
        name = fresh_manager.define(
            fresh_manager.root, spec("x >= 0"), ["x"]
        )
        assert fresh_manager.validate(name).outcome is Outcome.OK
        assert fresh_manager.read(name, "x").outcome is Outcome.OK
        assert fresh_manager.begin_write(name, "x").outcome is Outcome.OK
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            fresh_manager.end_write(name, "x", 10_000)  # out of domain
        fresh_manager.flush()
        assert not [
            record
            for record in scan_wal(wal_dir).records
            if record.op == OP_WRITE
        ]

    def test_abort_logs_full_cascade(self, wal_dir):
        manager, _ = DurableTransactionManager.open(
            wal_dir, make_database
        )
        author = run_leaf(manager, "x", 10, commit=False)
        reader = manager.define(
            manager.root, spec("x >= 10 & y >= 0"), ["y"]
        )
        assert manager.validate(reader).outcome is Outcome.OK
        assert manager.read(reader, "x").outcome is Outcome.OK
        names = manager.abort(author)
        assert set(names) == {author, reader}
        manager.flush()
        aborts = [
            record
            for record in scan_wal(wal_dir).records
            if record.op == OP_ABORT
        ]
        logged = {
            name
            for record in aborts
            for name in record.data["aborted"]
        }
        assert logged == {author, reader}
        # The author's record carries the expunged x-version.
        assert any(record.data["expunged"] for record in aborts)
        manager.close()

    def test_each_abort_records_only_itself(self, wal_dir, fresh_manager):
        abort_cascade_session(fresh_manager)
        fresh_manager.flush()
        records = scan_wal(wal_dir).records
        authors = {
            (record.data["entity"], record.data["sequence"]): record.txn
            for record in records
            if record.op == OP_WRITE
        }
        aborts = [record for record in records if record.op == OP_ABORT]
        for record in aborts:
            assert record.data["aborted"] == [record.txn]
            expunged = [tuple(ref) for ref in record.data["expunged"]]
            assert expunged == sorted(expunged)  # entity-major here
            assert set(expunged) == {
                ref for ref, author in authors.items()
                if author == record.txn
            }
        # Children before their parent; a cause before its victim.
        assert [record.txn for record in aborts] == [
            "t.1.0", "t.1.1", "t.1", "t.2", "t.3"
        ]
        assert aborts[1].data["reason"] == "read a version aborted with t.1.0"
        assert aborts[4].data["reason"] == "read a version aborted with t.2"
        # The survivor's REASSIGN is written where it is decided, and
        # it moves the assignment.
        tail = [
            (record.op, record.txn)
            for record in records
            if record.lsn >= aborts[3].lsn
        ]
        assert tail[:3] == [
            (OP_ABORT, "t.2"), (OP_ABORT, "t.3"), (OP_REASSIGN, "t.4")
        ]
        assigned = {}
        for record in records:
            if record.op in (OP_VALIDATE, OP_REASSIGN):
                assert record.data["assigned"] != assigned.get(record.txn)
                assigned[record.txn] = record.data["assigned"]

    def test_cascade_reassignments_logged_and_replayable(self, wal_dir):
        manager, _ = DurableTransactionManager.open(
            wal_dir, make_database
        )
        # Selection takes the smallest satisfying value, so the author
        # writes below the initial 5: the bystander's x >= 0 admits
        # both versions, takes the author's, and can fall back to the
        # initial one when the author aborts.
        author = run_leaf(manager, "x", 3, commit=False)
        bystander = manager.define(
            manager.root, spec("x >= 0"), ["x"]
        )
        assert manager.validate(bystander).outcome is Outcome.OK
        assert (
            manager.record(bystander).assigned["x"].author == author
        )
        manager.abort(author)  # bystander re-selects, not yet read
        assert manager.record(bystander).assigned["x"].author is None
        reassigns = [
            record
            for record in scan_wal(wal_dir).records
            if record.op == OP_REASSIGN and record.txn == bystander
        ]
        assert reassigns
        result = recover(wal_dir)
        assert result.verified, result.violations
        recovered = result.manager.record(bystander)
        assert recovered.assigned["x"].author is None

    def test_undo_relative_commit_logged(self, wal_dir, fresh_manager):
        parent = fresh_manager.define(
            fresh_manager.root, spec("x >= 0"), ["x"]
        )
        assert fresh_manager.validate(parent).outcome is Outcome.OK
        child = run_leaf(fresh_manager, "x", 33, parent=parent)
        undone = fresh_manager.undo_relative_commit(child)
        assert undone.outcome is Outcome.OK
        fresh_manager.flush()
        assert [
            record.txn
            for record in scan_wal(wal_dir).records
            if record.op == OP_UNDO_COMMIT
        ] == [child]


class TestCheckpointCadence:
    def test_checkpoint_every_triggers_automatically(self, wal_dir):
        manager, _ = DurableTransactionManager.open(
            wal_dir, make_database, checkpoint_every=5
        )
        store = CheckpointStore(wal_dir)
        bootstrap = len(store.checkpoints())
        run_leaf(manager, "x", 11)  # 5 records: define..commit
        assert len(store.checkpoints()) == bootstrap + 1
        manager.close(checkpoint=False)

    def test_zero_means_manual_only(self, wal_dir, fresh_manager):
        store = CheckpointStore(wal_dir)
        bootstrap = len(store.checkpoints())
        for value in (11, 22, 33):
            run_leaf(fresh_manager, "x", value)
        assert len(store.checkpoints()) == bootstrap

    def test_retention_drops_covered_segments(self, wal_dir):
        manager, _ = DurableTransactionManager.open(
            wal_dir, make_database, checkpoint_every=5, retain=2
        )
        for value in range(10):
            run_leaf(manager, "x", value)
        store = CheckpointStore(wal_dir)
        assert len(store.checkpoints()) == 2
        oldest = store.oldest_retained_lsn()
        # Every surviving record is reachable from a retained
        # checkpoint; nothing older is kept around.
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert result.checkpoint_lsn >= oldest
        manager.close(checkpoint=False)

    def test_close_checkpoints_by_default(self, wal_dir):
        manager, _ = DurableTransactionManager.open(
            wal_dir, make_database
        )
        store = CheckpointStore(wal_dir)
        before = len(store.checkpoints())
        run_leaf(manager, "x", 11)
        manager.close()
        assert len(store.checkpoints()) == before + 1
        result = recover(wal_dir)
        assert result.records_replayed == 0  # checkpoint covers all
        assert result.verified, result.violations
