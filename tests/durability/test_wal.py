"""Segmented WAL tests: append/scan, torn tails, group commit."""

from __future__ import annotations

import pytest

from repro.durability.records import WalRecord
from repro.durability.wal import (
    WriteAheadLog,
    cleanup_segments,
    list_segments,
    scan_wal,
    segment_name,
    truncate_torn_tail,
)
from repro.errors import DurabilityError
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self, now: float = 100.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def append_n(wal: WriteAheadLog, count: int, op: str = "read") -> None:
    for index in range(count):
        wal.append(op, f"t.{index}", {"entity": "x"})


class TestAppendScan:
    def test_round_trip(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        first = wal.append("define", "t.0", {"parent": "t"})
        second = wal.append("commit", "t.0", {"released": {"x": 1}})
        wal.close()
        scan = scan_wal(wal_dir)
        assert scan.records == [first, second]
        assert scan.torn is None
        assert scan.last_lsn == 2

    def test_bytes_reach_os_before_append_returns(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.append("read", "t.0", {"entity": "x"})
        # No close, no flush — a SIGKILL from here must lose nothing.
        assert len(scan_wal(wal_dir).records) == 1

    def test_lsns_are_contiguous_from_next_lsn(self, wal_dir):
        wal = WriteAheadLog(wal_dir, next_lsn=40)
        append_n(wal, 3)
        wal.close()
        assert [r.lsn for r in scan_wal(wal_dir).records] == [40, 41, 42]

    def test_rotation_starts_new_segment(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 2)
        wal.rotate()
        append_n(wal, 1)
        wal.close()
        segments = list_segments(wal_dir)
        assert [p.name for p in segments] == [
            segment_name(1),
            segment_name(3),
        ]
        assert [r.lsn for r in scan_wal(wal_dir).records] == [1, 2, 3]

    def test_reopening_existing_nonempty_segment_refused(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 1)
        wal.close()
        with pytest.raises(DurabilityError, match="already exists"):
            WriteAheadLog(wal_dir, next_lsn=1)

    def test_append_after_close_refused(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        wal.close()
        assert wal.closed
        with pytest.raises(DurabilityError, match="closed"):
            wal.append("read", "t.0", {})


class TestTornTail:
    def _torn_dir(self, wal_dir, keep_records: int = 2):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, keep_records)
        wal.close()
        path = list_segments(wal_dir)[-1]
        with open(path, "ab") as handle:
            handle.write(b'{"lsn": 99, "op": "re')  # torn mid-append
        return path

    def test_torn_tail_detected_and_truncated(self, wal_dir):
        path = self._torn_dir(wal_dir)
        scan = scan_wal(wal_dir)
        assert scan.torn is not None and scan.torn[0] == path
        assert len(scan.records) == 2
        assert truncate_torn_tail(scan)
        rescan = scan_wal(wal_dir)
        assert rescan.torn is None and len(rescan.records) == 2

    def test_unterminated_valid_record_is_torn(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 1)
        wal.close()
        path = list_segments(wal_dir)[-1]
        line = WalRecord(2, "read", "t.1", {"entity": "x"}).encode()
        with open(path, "ab") as handle:
            handle.write(line.rstrip(b"\n"))  # no trailing newline
        scan = scan_wal(wal_dir)
        assert scan.torn is not None
        assert "newline" in (scan.torn_reason or "")

    def test_mid_log_corruption_raises(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 3)
        wal.close()
        path = list_segments(wal_dir)[-1]
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken": true}\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(DurabilityError, match="followed by a valid"):
            scan_wal(wal_dir)

    def test_corruption_in_older_segment_raises(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 2)
        wal.rotate()
        append_n(wal, 1)
        wal.close()
        old = list_segments(wal_dir)[0]
        old.write_bytes(old.read_bytes()[:-10] + b"garbage!!\n")
        with pytest.raises(DurabilityError, match="mid-log"):
            scan_wal(wal_dir)

    def test_lsn_gap_raises(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 2)
        wal.close()
        path = list_segments(wal_dir)[-1]
        skipper = WalRecord(4, "read", "t.9", {"entity": "x"})
        with open(path, "ab") as handle:
            handle.write(skipper.encode())
        with pytest.raises(DurabilityError, match="discontinuity"):
            scan_wal(wal_dir)


class TestGroupCommit:
    def test_sync_mode_flushes_durable_ops_immediately(self, wal_dir):
        wal = WriteAheadLog(wal_dir, flush_interval=0.0)
        wal.append("read", "t.0", {"entity": "x"})
        assert wal.pending_records == 1
        wal.append("commit", "t.0", {"released": {}})
        assert wal.pending_records == 0  # fsync covered both
        wal.close()

    def test_durable_op_arms_deadline(self, wal_dir):
        clock = FakeClock()
        wal = WriteAheadLog(
            wal_dir, flush_interval=0.5, clock=clock
        )
        wal.append("read", "t.0", {"entity": "x"})
        assert wal.flush_due is None  # non-durable ops never arm
        wal.append("commit", "t.0", {"released": {}})
        assert wal.flush_due == pytest.approx(clock.now + 0.5)
        assert wal.maybe_flush() == 0  # deadline not reached
        clock.advance(0.6)
        assert wal.maybe_flush() == 2  # one fsync, both records
        assert wal.flush_due is None
        wal.close()

    def test_second_commit_does_not_push_deadline_out(self, wal_dir):
        clock = FakeClock()
        wal = WriteAheadLog(
            wal_dir, flush_interval=0.5, clock=clock
        )
        wal.append("commit", "t.0", {"released": {}})
        due = wal.flush_due
        clock.advance(0.3)
        wal.append("commit", "t.1", {"released": {}})
        assert wal.flush_due == due
        wal.close()

    def test_durable_lengths_track_fsynced_bytes(self, wal_dir):
        clock = FakeClock()
        wal = WriteAheadLog(
            wal_dir, flush_interval=5.0, clock=clock
        )
        name = segment_name(1)
        assert wal.durable_lengths()[name] == 0
        wal.append("commit", "t.0", {"released": {}})
        assert wal.durable_lengths()[name] == 0  # written, not fsynced
        wal.flush()
        flushed = wal.durable_lengths()[name]
        assert flushed == wal.current_segment.stat().st_size
        wal.append("commit", "t.1", {"released": {}})
        assert wal.durable_lengths()[name] == flushed  # unflushed tail
        wal.close()

    def test_rotated_segments_are_fully_durable(self, wal_dir):
        clock = FakeClock()
        wal = WriteAheadLog(
            wal_dir, flush_interval=5.0, clock=clock
        )
        wal.append("commit", "t.0", {"released": {}})
        wal.rotate()
        lengths = wal.durable_lengths()
        old = segment_name(1)
        assert lengths[old] == (wal_dir / old).stat().st_size
        wal.close()

    def test_window_amortises_fsyncs(self, tmp_path):
        """Sync mode fsyncs once per commit; a window takes fewer
        fsyncs for the same appends."""

        def fsyncs(flush_interval: float) -> int:
            clock = FakeClock()
            registry = MetricsRegistry()
            wal = WriteAheadLog(
                tmp_path / f"wal-{flush_interval}",
                flush_interval=flush_interval,
                registry=registry,
                clock=clock,
            )
            for index in range(200):
                wal.append("commit", f"t.{index}", {"released": {}})
                clock.advance(0.001)
                wal.maybe_flush()
            wal.close()
            return registry.counter("wal.fsyncs").value

        assert fsyncs(0.0) == 200
        assert fsyncs(0.005) < 200


class TestCleanup:
    def test_cleanup_drops_fully_covered_segments(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 2)  # lsn 1-2 in wal-1
        wal.rotate()
        append_n(wal, 2)  # lsn 3-4 in wal-3
        wal.rotate()
        append_n(wal, 1)  # lsn 5 in wal-5
        wal.close()
        removed = cleanup_segments(wal_dir, safe_lsn=2)
        assert [p.name for p in removed] == [segment_name(1)]
        assert [p.name for p in list_segments(wal_dir)] == [
            segment_name(3),
            segment_name(5),
        ]

    def test_cleanup_never_deletes_newest_segment(self, wal_dir):
        wal = WriteAheadLog(wal_dir)
        append_n(wal, 2)
        wal.close()
        assert cleanup_segments(wal_dir, safe_lsn=10) == []
        assert len(list_segments(wal_dir)) == 1
