"""Recovery-pass tests: replay, undo cascades, damage, verification."""

from __future__ import annotations

import json

import pytest

from repro.core import Domain, Entity, Schema
from repro.durability import DurableTransactionManager, recover
from repro.durability.records import (
    OP_COMMIT,
    OP_WRITE,
    WalRecord,
)
from repro.durability.snapshot import CheckpointStore, _digest
from repro.durability.wal import list_segments, scan_wal
from repro.errors import RecoveryError
from repro.protocol.scheduler import Outcome, TxnPhase
from repro.storage import Database

from .conftest import make_database, run_leaf, spec


def open_fresh(wal_dir, **kwargs):
    manager, recovery = DurableTransactionManager.open(
        wal_dir, make_database, **kwargs
    )
    assert recovery is None
    return manager


def rewrite_record(wal_dir, *, op, mutate):
    """Rewrite the first matching record in place, CRC recomputed."""
    for path in list_segments(wal_dir):
        lines = path.read_bytes().splitlines(keepends=True)
        for index, line in enumerate(lines):
            record = WalRecord.decode(line.rstrip(b"\n"))
            if record.op != op:
                continue
            data = dict(record.data)
            mutate(data)
            lines[index] = WalRecord(
                record.lsn, record.op, record.txn, data
            ).encode()
            path.write_bytes(b"".join(lines))
            return record
    raise AssertionError(f"no {op} record found")


class TestCommittedPrefix:
    def test_committed_survive_recovery(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        run_leaf(manager, "y", 22)
        # Abandoned mid-flight: no close(), like a SIGKILL.
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert result.committed == ["t.0", "t.1"]
        view = result.manager.view(result.manager.root)
        assert view == {"x": 11, "y": 22, "z": 5}

    def test_in_flight_txn_aborted(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        run_leaf(manager, "y", 22, commit=False)  # caught mid-flight
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert result.committed == ["t.0"]
        assert result.undo.aborted_in_flight == ["t.1"]
        assert result.undo.expunged_versions == 1
        view = result.manager.view(result.manager.root)
        assert view == {"x": 11, "y": 5, "z": 5}
        record = result.manager.record("t.1")
        assert record.phase is TxnPhase.ABORTED

    def test_cascade_through_recorded_reads_from(self, wal_dir):
        manager = open_fresh(wal_dir)
        # t.0 writes x but never commits; t.1 reads t.0's version (the
        # only x its input admits) and commits.  Recovery must undo
        # t.1's commit (RC enforcement).
        run_leaf(manager, "x", 10, commit=False)
        reader = manager.define(
            manager.root, spec("x >= 10 & y >= 0"), ["y"]
        )
        assert manager.validate(reader).outcome is Outcome.OK
        assert manager.record(reader).assigned["x"].author == "t.0"
        assert manager.read(reader, "x").outcome is Outcome.OK
        assert manager.begin_write(reader, "y").outcome is Outcome.OK
        assert manager.end_write(reader, "y", 20).outcome is Outcome.OK
        assert manager.commit(reader).outcome is Outcome.OK
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert result.committed == []
        assert result.undo.aborted_in_flight == ["t.0"]
        assert result.undo.cascaded_commits == ["t.1"]
        view = result.manager.view(result.manager.root)
        assert view == {"x": 5, "y": 5, "z": 5}  # back to initial

    def test_nested_in_flight_parent_kills_committed_child(
        self, wal_dir
    ):
        manager = open_fresh(wal_dir)
        parent = manager.define(manager.root, spec("x >= 0"), ["x"])
        assert manager.validate(parent).outcome is Outcome.OK
        child = run_leaf(manager, "x", 33, parent=parent)
        assert child == f"{parent}.0"
        # The child committed *relative to* its in-flight parent only.
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert result.committed == []
        assert parent in result.undo.aborted_in_flight
        assert child in result.undo.cascaded_commits
        view = result.manager.view(result.manager.root)
        assert view["x"] == 5

    def test_ten_thousand_record_wal_recovers_verified(self, wal_dir):
        # 100 leaves x 100 reads, no checkpoint past the first: recovery
        # replays every record, exactly as after a crash.
        manager = open_fresh(wal_dir, checkpoint_every=0)
        for index in range(100):
            entity = "xyz"[index % 3]
            name = manager.define(
                manager.root, spec(f"{entity} >= 0"), [entity]
            )
            assert manager.validate(name).outcome is Outcome.OK
            for _ in range(100):
                assert manager.read(name, entity).outcome is Outcome.OK
            assert manager.write(name, entity, index).outcome is Outcome.OK
            assert manager.commit(name).outcome is Outcome.OK
        result = recover(wal_dir)
        assert result.records_replayed >= 10_000
        assert result.verified, result.violations
        assert len(result.committed) == 100

    def test_recovered_manager_serves_new_transactions(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        result = recover(wal_dir)
        follow_up = result.manager.define(
            result.manager.root, spec("x >= 0"), ["x"]
        )
        # Child names continue past recovered ones: no name reuse.
        assert follow_up == "t.1"
        assert result.manager.validate(follow_up).outcome is Outcome.OK


class TestDamage:
    def test_torn_tail_truncated_and_reported(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        newest = list_segments(wal_dir)[-1]
        with open(newest, "ab") as handle:
            handle.write(b'{"lsn": 999, "op"')
        result = recover(wal_dir)
        assert result.torn_tail_truncated
        assert result.verified, result.violations
        assert result.committed == ["t.0"]

    def test_no_checkpoint_raises(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        manager.close()
        for path in CheckpointStore(wal_dir).checkpoints():
            path.unlink()
        with pytest.raises(RecoveryError, match="no usable checkpoint"):
            recover(wal_dir)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no WAL directory"):
            recover(tmp_path / "never-created")

    def test_wal_gap_raises(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        manager.checkpoint()
        run_leaf(manager, "y", 22)
        # Lose the middle: the newest checkpoint and the segment
        # covering everything before it.
        newest_checkpoint = CheckpointStore(wal_dir).checkpoints()[-1]
        newest_checkpoint.unlink()
        list_segments(wal_dir)[0].unlink()
        with pytest.raises(RecoveryError, match="WAL gap"):
            recover(wal_dir)

    def test_non_deterministic_replay_raises(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        rewrite_record(
            wal_dir,
            op=OP_WRITE,
            mutate=lambda data: data.update(
                sequence=data["sequence"] + 7
            ),
        )
        with pytest.raises(RecoveryError, match="non-deterministic"):
            recover(wal_dir)


def _wide_database():
    """``make_database`` with a domain that admits values the
    consistency predicate refuses."""
    database = make_database()
    schema = Schema(
        [Entity(name, Domain(-10, 100)) for name in database.schema.names]
    )
    return Database(schema, database.constraint, {"x": 5, "y": 5, "z": 5})


class TestVerification:
    def test_tampered_commit_fails_consistency(self, wal_dir):
        manager, __ = DurableTransactionManager.open(wal_dir, _wide_database)
        run_leaf(manager, "x", 11)
        # A forged write, and the release that carries it, breaking the
        # consistency predicate: the CRCs are recomputed, so only
        # verification can catch it.
        rewrite_record(
            wal_dir, op=OP_WRITE, mutate=lambda data: data.update(value=-1)
        )
        rewrite_record(
            wal_dir,
            op=OP_COMMIT,
            mutate=lambda data: data.update(released={"x": -1}),
        )
        result = recover(wal_dir)
        assert not result.verified
        assert any(
            "consistency" in violation
            for violation in result.violations
        )

    def test_forged_release_is_not_what_the_record_releases(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        # Replay takes the release from the writer's record, so the
        # forged value never reaches the world; verification compares.
        rewrite_record(
            wal_dir,
            op=OP_COMMIT,
            mutate=lambda data: data.update(released={"x": -1}),
        )
        result = recover(wal_dir)
        assert result.manager.view(result.manager.root)["x"] == 11
        assert any(
            "logged release {'x': -1} is not what its record releases"
            in violation
            for violation in result.violations
        ), result.violations

    def test_open_refuses_unverified_state(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        rewrite_record(
            wal_dir,
            op=OP_COMMIT,
            mutate=lambda data: data.update(released={"x": -1}),
        )
        with pytest.raises(RecoveryError, match="refusing to serve"):
            DurableTransactionManager.open(wal_dir, make_database)

    def test_tampered_checkpoint_diverges_from_wal_fold(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 42)
        manager.checkpoint()
        # Forge the checkpoint (valid sha) to claim x=43 throughout:
        # the write, the stored version and the release.  The WAL's
        # COMMIT record still says 42, and the independent fold wins.
        path = CheckpointStore(wal_dir).checkpoints()[-1]
        payload = json.loads(path.read_bytes())
        state = payload["state"]
        _forge_release(state, "x", 43)
        state["txns"]["t.0"]["writes"]["x"][0] = 43
        for row in state["store"]["versions"]:
            if row[2] == "t.0":
                row[1] = 43
        payload["sha256"] = _digest(payload["last_lsn"], state)
        path.write_text(json.dumps(payload, sort_keys=True))
        result = recover(wal_dir)
        assert not result.verified
        assert any(
            "diverges" in violation for violation in result.violations
        )

    def test_checkpoint_release_unlike_its_record_is_refused(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 42)
        manager.checkpoint()
        # Only the release is forged: it is resolved from t.0's record,
        # which still writes 42, so the checkpoint contradicts itself.
        path = CheckpointStore(wal_dir).checkpoints()[-1]
        payload = json.loads(path.read_bytes())
        state = payload["state"]
        _forge_release(state, "x", 43)
        payload["sha256"] = _digest(payload["last_lsn"], state)
        path.write_text(json.dumps(payload, sort_keys=True))
        with pytest.raises(RecoveryError, match="t.0's record releases"):
            recover(wal_dir)

    def test_verify_false_skips_verification(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        rewrite_record(
            wal_dir,
            op=OP_COMMIT,
            mutate=lambda data: data.update(released={"x": -1}),
        )
        result = recover(wal_dir, verify=False)
        assert result.violations == []


def _forge_release(state, item, value):
    root = state["txns"][state["root"]]
    root["merged_child_writes"][item] = value
    for entry in root["release_log"]:
        entry[1][item] = value


class TestReopenContinuity:
    def test_close_reopen_preserves_state(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        live_view = dict(manager.view(manager.root))
        manager.close()
        reopened, recovery = DurableTransactionManager.open(
            wal_dir, make_database
        )
        assert recovery is not None and recovery.verified
        assert reopened.view(reopened.root) == live_view
        run_leaf(reopened, "y", 22)
        reopened.close()
        final = recover(wal_dir)
        assert final.verified, final.violations
        assert final.manager.view(final.manager.root) == {
            "x": 11,
            "y": 22,
            "z": 5,
        }

    def test_reopen_without_close_recovers_committed(self, wal_dir):
        manager = open_fresh(wal_dir)
        run_leaf(manager, "x", 11)
        run_leaf(manager, "y", 22, commit=False)
        reopened, recovery = DurableTransactionManager.open(
            wal_dir, make_database
        )
        assert recovery is not None and recovery.verified
        assert recovery.undo.aborted_in_flight == ["t.1"]
        assert reopened.view(reopened.root) == {
            "x": 11,
            "y": 5,
            "z": 5,
        }
