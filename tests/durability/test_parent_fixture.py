"""On-disk compatibility: a WAL directory the previous commit wrote.

``fixtures/parent_wal`` was left by the last commit that had two
transition functions (``fixtures/write_parent_wal.py`` is how): two
checkpoints, seven segments covering every record kind including
nested-abort cascades, one transaction in flight and one 2PC branch in
doubt.  ``fixtures/parent_wal.expected.json`` is what *that* commit's
recovery and follower made of it; today's must agree.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.durability import DurableTransactionManager, recover
from repro.durability.records import ALL_OPS
from repro.durability.wal import scan_wal
from repro.replication.follower import FollowerApplier

FIXTURES = Path(__file__).parent / "fixtures"
EXPECTED = json.loads(
    (FIXTURES / "parent_wal.expected.json").read_text(encoding="utf-8")
)


@pytest.fixture
def parent_wal(tmp_path):
    """A scratch copy: recovery truncates and a follower appends."""
    return Path(shutil.copytree(FIXTURES / "parent_wal", tmp_path / "wal"))


def test_fixture_covers_every_record_kind(parent_wal):
    assert {r.op for r in scan_wal(parent_wal).records} == ALL_OPS
    assert len(list(parent_wal.glob("checkpoint-*.json"))) == 2
    assert len(list(parent_wal.glob("wal-*.jsonl"))) >= 2


def test_recover_agrees_with_the_commit_that_wrote_it(parent_wal):
    result = recover(parent_wal, verify=True)
    assert result.verified, result.violations
    expected = EXPECTED["recover"]
    assert result.committed == expected["committed"]
    assert result.state.root_view() == expected["root_view"]
    assert result.manager.view(result.manager.root) == expected["root_view"]
    assert result.records_replayed == expected["records_replayed"]
    assert result.undo.aborted_in_flight == expected["aborted_in_flight"]


def test_follower_agrees_with_the_commit_that_wrote_it(parent_wal):
    applier = FollowerApplier(parent_wal)  # runs load_existing()
    try:
        applied_lsn, view = applier.read_view()
    finally:
        applier.close()
    assert applied_lsn == EXPECTED["follower"]["applied_lsn"]
    assert view == EXPECTED["follower"]["read_view"]


def test_the_directory_reopens_and_serves(parent_wal):
    manager, recovery = DurableTransactionManager.open(parent_wal)
    try:
        assert recovery is not None and recovery.verified
        assert manager.view(manager.root) == EXPECTED["recover"]["root_view"]
    finally:
        manager.close()
