"""Abort after commit has one meaning on live, recovered and follower state.

At the commit before the fix, ``abort`` of a transaction that had
committed under the root succeeded: its versions were expunged but its
released values lingered in the live root view, new transactions read
the older value, and recovery *verified* a third answer.  Now the root
level refuses (the commit was promised durable) and the nested level
withdraws the release through the same ``apply`` everywhere.
"""

from __future__ import annotations

import shutil

import pytest

from repro.durability import recover
from repro.errors import ProtocolError
from repro.protocol.scheduler import Outcome, TxnPhase
from repro.replication.follower import FollowerApplier

from .conftest import run_leaf, spec


def _follower_view(wal_dir, tmp_path):
    copy = shutil.copytree(wal_dir, tmp_path / "follower")
    applier = FollowerApplier(copy)
    try:
        return applier.read_view()[1]
    finally:
        applier.close()


def test_root_level_commit_cannot_be_aborted(wal_dir, fresh_manager, tmp_path):
    tm = fresh_manager
    a = run_leaf(tm, "x", 50)
    b = tm.define(tm.root, spec("x >= 0"), [])
    assert tm.validate(b).outcome is Outcome.OK
    assert tm.read(b, "x").value == 50
    assert tm.commit(b).outcome is Outcome.OK

    with pytest.raises(ProtocolError, match="committed under the root"):
        tm.abort(a)
    assert tm.phase(a) is TxnPhase.COMMITTED

    live = tm.view(tm.root)
    assert live["x"] == 50
    c = tm.define(tm.root, spec("x >= 0"), [])
    tm.validate(c)
    assert tm.read(c, "x").value == 50  # what a new transaction sees
    tm.abort(c)
    tm.flush()
    result = recover(wal_dir, verify=True)
    assert result.verified, result.violations
    assert result.committed == [a, b]
    assert result.manager.view(tm.root) == live
    assert _follower_view(wal_dir, tmp_path) == live


def test_nested_commit_abort_withdraws_the_release(
    wal_dir, fresh_manager, tmp_path
):
    tm = fresh_manager  # shadowed: replay == live after every step
    parent = tm.define(tm.root, spec(), ["x", "y"])
    tm.validate(parent)
    first = run_leaf(tm, "x", 70, parent=parent)
    second = run_leaf(tm, "y", 80, parent=parent)
    assert tm.view(parent)["x"] == 70

    assert tm.abort(first) == [first]
    assert tm.view(parent) == {"x": 5, "y": 80, "z": 5}
    released = tm.record(second).writes["y"]
    assert released.value == 80
    assert tm.record(parent).release_log == [(second, {"y": released})]
    assert tm.commit(parent).outcome is Outcome.OK

    live = tm.view(tm.root)
    assert live == {"x": 5, "y": 80, "z": 5}
    tm.flush()
    result = recover(wal_dir, verify=True)
    assert result.verified, result.violations
    assert result.committed == [second, parent]
    assert result.manager.view(tm.root) == live
    assert result.manager.view(parent) == tm.view(parent)
    assert _follower_view(wal_dir, tmp_path) == live


def test_parent_abort_takes_its_committed_children(
    wal_dir, fresh_manager, tmp_path
):
    """A child's commit is relative to its parent: when the parent
    aborts, the child aborts too and its versions leave the store."""
    tm = fresh_manager  # shadowed: replay == live after every step
    parent = tm.define(tm.root, spec(), ["x"])
    tm.validate(parent)
    child = run_leaf(tm, "x", 3, parent=parent)
    assert tm.phase(child) is TxnPhase.COMMITTED

    assert tm.abort(parent) == [child, parent]
    assert tm.phase(child) is TxnPhase.ABORTED
    assert tm.state.committed_names() == []
    assert [v.author for v in tm.database.store.versions("x")] == [None]
    assert tm.view(tm.root) == {"x": 5, "y": 5, "z": 5}

    tm.flush()
    result = recover(wal_dir, verify=True)
    assert result.verified, result.violations
    assert result.committed == []
    assert result.manager.phase(child) is TxnPhase.ABORTED
    assert _follower_view(wal_dir, tmp_path) == tm.view(tm.root)
