"""Checkpoint store tests: atomic publication, retention, fallback."""

from __future__ import annotations

import json

import pytest

from repro.durability import DurableTransactionManager
from repro.durability.recovery import undo_in_flight
from repro.durability.snapshot import (
    CheckpointStore,
    _digest,
    checkpoint_lsn,
    checkpoint_name,
)
from repro.errors import DurabilityError
from repro.protocol.state import encode_state

from .conftest import make_database, run_leaf, spec

STATE_A = {"initial": {"x": 1}, "marker": "a", "txns": {}}
STATE_B = {"initial": {"x": 2}, "marker": "b", "txns": {"t.0": {"n": 1}}}


class TestWriteLoad:
    def test_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write(encode_state(STATE_A), last_lsn=7)
        assert path.name == checkpoint_name(7)
        assert store.load_newest() == (STATE_A, 7)

    def test_newest_wins(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(encode_state(STATE_A), last_lsn=7)
        store.write(encode_state(STATE_B), last_lsn=19)
        assert store.load_newest() == (STATE_B, 19)

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load_newest() is None

    def test_retain_must_be_positive(self, tmp_path):
        with pytest.raises(DurabilityError, match="retain"):
            CheckpointStore(tmp_path, retain=0)


class TestCorruptFallback:
    def test_falls_back_past_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(encode_state(STATE_A), last_lsn=7)
        newest = store.write(encode_state(STATE_B), last_lsn=19)
        newest.write_bytes(newest.read_bytes()[:-20])
        assert store.load_newest() == (STATE_A, 7)

    def test_tampered_state_fails_sha(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.write(encode_state(STATE_A), last_lsn=7)
        path = store.write(encode_state(STATE_B), last_lsn=19)
        payload = json.loads(path.read_bytes())
        payload["state"]["initial"]["x"] = 999
        path.write_text(json.dumps(payload))
        assert store.load_newest() == (STATE_A, 7)

    def test_renamed_checkpoint_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        path = store.write(encode_state(STATE_A), last_lsn=7)
        # A checkpoint whose filename LSN disagrees with its payload is
        # not trusted (rename games must not change history).
        path.rename(tmp_path / checkpoint_name(99))
        assert store.load_newest() is None

    def test_all_corrupt_loads_none(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for lsn in (3, 9):
            store.write(encode_state(STATE_A), last_lsn=lsn)
        for path in store.checkpoints():
            path.write_text("not json at all")
        assert store.load_newest() is None


class TestRetention:
    def test_prunes_beyond_retain(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        for lsn in (5, 10, 15, 20):
            store.write(encode_state(STATE_A), last_lsn=lsn)
        assert [checkpoint_lsn(p) for p in store.checkpoints()] == [
            15,
            20,
        ]
        assert store.oldest_retained_lsn() == 15

    def test_prune_clears_stale_tmp_files(self, tmp_path):
        store = CheckpointStore(tmp_path, retain=2)
        leftover = tmp_path / (checkpoint_name(3) + ".tmp")
        leftover.write_text("half a checkpoint")
        store.write(encode_state(STATE_A), last_lsn=5)
        assert not leftover.exists()
        assert store.load_newest() == (STATE_A, 5)


def _dumped(state: dict, last_lsn: int) -> bytes:
    """A checkpoint file of ``state`` as ``json.dumps`` writes it."""
    return json.dumps(
        {
            "format": 1,
            "last_lsn": last_lsn,
            "sha256": _digest(last_lsn, state),
            "state": state,
        },
        sort_keys=True,
    ).encode("utf-8")


class TestEncoding:
    def test_bytes_are_json_dumps_of_the_payload(self, tmp_path):
        path = CheckpointStore(tmp_path).write(
            encode_state(STATE_B), last_lsn=19
        )
        assert path.read_bytes() == _dumped(STATE_B, 19)

    def test_kept_encoding_follows_every_kind_of_step(self, wal_dir):
        """A checkpoint after each step, so every record's encoding is
        cached before the next one: each step must drop every one it
        made stale (REASSIGN, UNDO_COMMIT, PREPARE, a nested relative
        commit, and a nested abort that takes a committed child)."""
        tm, __ = DurableTransactionManager.open(wal_dir, make_database)
        kinds: list[str] = []
        real_append = tm.wal.append

        def append(op, txn, data):
            kinds.append(op)
            return real_append(op, txn, data)

        tm.wal.append = append
        store = CheckpointStore(wal_dir)

        def checkpointed(result=None):
            path = tm.checkpoint()
            state = tm.state.dump()
            lsn = checkpoint_lsn(path)
            assert path.read_bytes() == _dumped(state, lsn)
            assert store.load_newest() == (state, lsn)
            return result

        nest = checkpointed(tm.define(tm.root, spec(), ["x", "y"]))
        checkpointed(tm.validate(nest))
        child = checkpointed(tm.define(nest, spec("x >= 0"), ["x"]))
        checkpointed(tm.validate(child))
        checkpointed(tm.read(child, "x"))
        checkpointed(tm.write(child, "x", 3))
        checkpointed(tm.commit(child))  # relative to the live nest
        checkpointed(tm.undo_relative_commit(child))
        checkpointed(tm.commit(child))

        author = checkpointed(run_leaf(tm, "y", 3, commit=False))
        bystander = checkpointed(tm.define(tm.root, spec("y >= 0"), []))
        checkpointed(tm.validate(bystander))
        assert tm.record(bystander).assigned["y"].author == author
        promise = {"gid": "g", "participants": {"0": bystander}}
        checkpointed(tm.prepare(bystander, {**promise, "coordinator": 0}))
        assert checkpointed(tm.abort(author)) == [author]  # re-selects
        checkpointed(tm.commit(bystander))

        assert checkpointed(tm.abort(nest)) == [child, nest]
        assert {"reassign", "undo_commit", "prepare", "abort"} <= set(kinds)
        tm.close()

    def test_kept_encoding_follows_recovery_undo(self, wal_dir):
        """Recovery's undo is one ABORT, under the root's name, naming
        every transaction the crash caught — each name's encoding and
        its parent's go stale."""
        tm, __ = DurableTransactionManager.open(wal_dir, make_database)
        nest = tm.define(tm.root, spec(), ["x"])
        tm.validate(nest)
        child = run_leaf(tm, "x", 3, parent=nest)
        loose = run_leaf(tm, "y", 4, commit=False)
        tm.state.encoded()
        report = undo_in_flight(tm.state)
        assert report.aborted_in_flight == sorted([nest, loose])
        assert report.cascaded_commits == [child]
        assert tm.state.encoded() == encode_state(tm.state.dump())
        tm.close(checkpoint=False)
