"""Recovered histories land in the RC/ACA/ST hierarchy where claimed.

Satellite claim of the durability subsystem: every WAL a recovery pass
accepts is RC against the recorded (multi-version) reads-from relation,
and a strict-mode manager's WAL flattens to an ST schedule whenever the
mono-version flattening is faithful.
"""

from __future__ import annotations

from repro.durability import (
    DurableTransactionManager,
    recover,
    simulate_crash,
)
from repro.durability.history import (
    committed_projection,
    flat_reads_match_recorded,
    recorded_is_rc,
    recorded_reads_from,
)
from repro.durability.wal import scan_wal
from repro.protocol.scheduler import Outcome
from repro.schedules.recovery import (
    avoids_cascading_aborts,
    is_recoverable,
    is_strict,
)

from .conftest import make_database, run_leaf, spec


def open_manager(wal_dir, **kwargs):
    manager, _ = DurableTransactionManager.open(
        wal_dir, make_database, **kwargs
    )
    return manager


def drive_leaf(manager, name, entity, value):
    assert manager.validate(name).outcome is Outcome.OK
    assert manager.read(name, entity).outcome is Outcome.OK
    assert manager.begin_write(name, entity).outcome is Outcome.OK
    assert manager.end_write(name, entity, value).outcome is Outcome.OK


class TestRecoveredIsRC:
    def test_serial_history_is_rc(self, wal_dir):
        manager = open_manager(wal_dir)
        run_leaf(manager, "x", 11)
        run_leaf(manager, "y", 22)
        result = recover(wal_dir)
        records = scan_wal(wal_dir).records
        assert recorded_is_rc(records, commit_order=result.committed)

    def test_dirty_read_history_is_rc_only_after_recovery(self, wal_dir):
        manager = open_manager(wal_dir)
        # t.1 commits having read t.0's never-committed write: the raw
        # WAL is NOT RC...
        run_leaf(manager, "x", 10, commit=False)
        reader = manager.define(
            manager.root, spec("x >= 10 & y >= 0"), ["y"]
        )
        drive_leaf(manager, reader, "y", 20)
        assert manager.read(reader, "x").outcome is Outcome.OK
        assert manager.record(reader).assigned["x"].author == "t.0"
        assert manager.commit(reader).outcome is Outcome.OK
        records = scan_wal(wal_dir).records
        assert not recorded_is_rc(records)
        # ...and recovery's cascade is exactly what restores RC.
        result = recover(wal_dir)
        assert result.verified, result.violations
        assert reader in result.undo.cascaded_commits
        assert recorded_is_rc(records, commit_order=result.committed)

    def test_every_crash_sweep_survivor_is_rc(self, tmp_path):
        def workload(manager):
            run_leaf(manager, "x", 11)
            run_leaf(manager, "y", 22)
            run_leaf(manager, "z", 33, commit=False)

        for crash_point in ("wal.mid_record", "wal.before_flush"):
            out = simulate_crash(
                tmp_path / crash_point.replace(".", "_"),
                make_database,
                workload,
                crash_point=crash_point,
                mode="powerloss",
            )
            assert out.recovery.verified
            records = scan_wal(out.survivor_dir).records
            assert recorded_is_rc(
                records, commit_order=out.recovery.committed
            )


class TestStrictModeIsST:
    def _interleaved_strict_history(self, wal_dir):
        """Two disjoint concurrent writers, then a reader of both."""
        manager = open_manager(wal_dir, strict=True)
        a = manager.define(manager.root, spec("x >= 0"), ["x"])
        b = manager.define(manager.root, spec("y >= 0"), ["y"])
        for name in (a, b):
            assert manager.validate(name).outcome is Outcome.OK
        assert manager.read(a, "x").outcome is Outcome.OK
        assert manager.read(b, "y").outcome is Outcome.OK
        for name, entity, value in ((a, "x", 10), (b, "y", 20)):
            assert (
                manager.begin_write(name, entity).outcome is Outcome.OK
            )
            assert (
                manager.end_write(name, entity, value).outcome
                is Outcome.OK
            )
        assert manager.commit(a).outcome is Outcome.OK
        assert manager.commit(b).outcome is Outcome.OK
        c = manager.define(
            manager.root, spec("x >= 10 & y >= 20 & z >= 0"), ["z"]
        )
        assert manager.validate(c).outcome is Outcome.OK
        assert manager.record(c).assigned["x"].author == a
        assert manager.read(c, "x").outcome is Outcome.OK
        assert manager.read(c, "y").outcome is Outcome.OK
        assert manager.begin_write(c, "z").outcome is Outcome.OK
        assert manager.end_write(c, "z", 30).outcome is Outcome.OK
        assert manager.commit(c).outcome is Outcome.OK
        # One straggler caught in flight by the "crash".
        d = manager.define(manager.root, spec("z >= 0"), ["z"])
        drive_leaf(manager, d, "z", 40)
        return manager

    def test_strict_mode_recovers_to_an_st_history(self, wal_dir):
        self._interleaved_strict_history(wal_dir)
        result = recover(wal_dir, strict=True)
        assert result.verified, result.violations
        records = scan_wal(wal_dir).records
        assert flat_reads_match_recorded(
            records, commit_order=result.committed
        )
        committed = committed_projection(
            records, commit_order=result.committed
        )
        assert is_strict(committed)
        # ST sits at the top of the hierarchy (Bernstein et al.):
        assert avoids_cascading_aborts(committed)
        assert is_recoverable(committed)

    def test_strict_mode_blocks_rather_than_reads_dirty(self, wal_dir):
        manager = open_manager(wal_dir, strict=True)
        a = manager.define(manager.root, spec("x >= 0"), ["x"])
        drive_leaf(manager, a, "x", 10)  # uncommitted write on x
        b = manager.define(manager.root, spec("x >= 0"), ["x"])
        assert manager.validate(b).outcome is Outcome.OK
        blocked = manager.begin_write(b, "x")
        assert blocked.outcome is Outcome.BLOCKED
        assert manager.commit(a).outcome is Outcome.OK
        assert manager.begin_write(b, "x").outcome is Outcome.OK


class TestOccurrenceKeying:
    def test_recorded_keys_align_with_flat_schedule(self, wal_dir):
        # Regression: recorded occurrences must be 0-based like
        # Schedule.read_sources(), or every non-initial read "differs".
        manager = open_manager(wal_dir)
        run_leaf(manager, "x", 10)
        reader = manager.define(
            manager.root, spec("x >= 10 & y >= 0"), ["y"]
        )
        drive_leaf(manager, reader, "y", 20)
        assert manager.read(reader, "x").outcome is Outcome.OK
        assert manager.commit(reader).outcome is Outcome.OK
        records = scan_wal(wal_dir).records
        recorded = recorded_reads_from(records)
        assert recorded[("t.1", "x", 0)] == "t.0"
        assert flat_reads_match_recorded(records)

    def test_empty_projection_when_nothing_committed(self, wal_dir):
        manager = open_manager(wal_dir)
        run_leaf(manager, "x", 10, commit=False)
        records = scan_wal(wal_dir).records
        assert committed_projection(records) is None
        assert flat_reads_match_recorded(records)
        assert recorded_is_rc(records)
