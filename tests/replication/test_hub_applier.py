"""Transport-free replication core: hub cursors, applier replay.

These tests drive :class:`ReplicationHub` and :class:`FollowerApplier`
directly (no sockets), the same way the deterministic fuzzer does.
"""

from __future__ import annotations

import pytest

from repro.durability.crashpoints import CrashPoints, SimulatedCrash
from repro.durability.records import WalRecord
from repro.durability.wal import (
    list_segments,
    read_batch,
    scan_wal,
    segment_first_lsn,
)
from repro.replication import (
    FollowerApplier,
    ReplicationError,
    ReplicationHub,
)
from repro.replication.messages import (
    KIND_RECORDS,
    KIND_SNAPSHOT,
)

from .conftest import commit_value, open_primary


def pump(hub, slot, applier, initial=None):
    """Deliver messages for ``slot`` until the applier catches up."""
    if initial is not None:
        assert initial["kind"] == KIND_SNAPSHOT
        applier.install_snapshot(initial["state"], initial["last_lsn"])
        hub.ack(slot, applier.applied_lsn)
    while True:
        message = hub.next_batch(slot)
        if message is None:
            return
        if message["kind"] == KIND_SNAPSHOT:
            applier.install_snapshot(
                message["state"], message["last_lsn"]
            )
        else:
            assert message["kind"] == KIND_RECORDS
            applier.apply_records(message)
        hub.ack(slot, applier.applied_lsn)


class TestShipAndApply:
    def test_follower_converges_to_primary_view(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        commit_value(primary, "x", 7)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "y", 9)
        commit_value(primary, "x", 11)
        pump(hub, slot, applier)
        applied_lsn, view = applier.read_view()
        assert view == {"x": 11, "y": 9}
        assert applied_lsn == primary.wal.durable_lsn
        assert applier.lag_lsn == 0
        primary.close()

    def test_follower_wal_is_byte_identical_suffix(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 3)
        commit_value(primary, "y", 4)
        pump(hub, slot, applier)
        primary_records = {
            record.lsn: record.encode()
            for record in scan_wal(tmp_path / "p").records
        }
        follower_scan = scan_wal(tmp_path / "f0")
        assert follower_scan.records, "follower shipped no records"
        for record in follower_scan.records:
            assert record.encode() == primary_records[record.lsn]
        primary.close()

    def test_only_durable_records_ship(self, tmp_path):
        # A huge flush window: appends stay buffered (not fsynced).
        primary = open_primary(tmp_path / "p", flush_interval=1e9)
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        base = applier.applied_lsn
        commit_value(primary, "x", 5)
        assert hub.next_batch(slot) is None  # nothing durable yet
        primary.flush()
        pump(hub, slot, applier)
        assert applier.applied_lsn > base
        _lsn, view = applier.read_view()
        assert view["x"] == 5
        primary.close()

    def test_lost_cursor_falls_back_to_snapshot(self, tmp_path):
        primary = open_primary(
            tmp_path / "p", checkpoint_every=4, retain=1
        )
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        # Enough commits to checkpoint + rotate + clean up segments
        # beyond the follower's stale cursor.
        for value in range(2, 30):
            commit_value(primary, "x", value)
        message = hub.next_batch(slot)
        assert message is not None
        while message is not None:
            if message["kind"] == KIND_SNAPSHOT:
                applier.install_snapshot(
                    message["state"], message["last_lsn"]
                )
            else:
                applier.apply_records(message)
            hub.ack(slot, applier.applied_lsn)
            message = hub.next_batch(slot)
        assert applier.snapshots_installed >= 2  # initial + resync
        _lsn, view = applier.read_view()
        assert view["x"] == 29
        primary.close()

    def test_sync_replicas_replicated_lsn_is_kth_ack(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary, sync_replicas=2)
        advanced = []
        hub.on_replicated = advanced.append
        slot_a, init_a = hub.register(0, "a")
        slot_b, init_b = hub.register(0, "b")
        applier_a = FollowerApplier(tmp_path / "a")
        applier_b = FollowerApplier(tmp_path / "b")
        pump(hub, slot_a, applier_a, init_a)
        commit_value(primary, "x", 8)
        pump(hub, slot_a, applier_a)
        # Only one of two required followers has acked.
        assert hub.replicated_lsn < primary.wal.durable_lsn
        pump(hub, slot_b, applier_b, init_b)
        assert hub.replicated_lsn == primary.wal.durable_lsn
        assert advanced and advanced[-1] == hub.replicated_lsn
        primary.close()


class TestApplierEdges:
    def test_gap_is_a_protocol_violation(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 2)
        commit_value(primary, "x", 3)
        message = hub.next_batch(slot)
        assert message["kind"] == KIND_RECORDS
        gapped = dict(message)
        gapped["records"] = message["records"][1:]  # drop the first
        with pytest.raises(ReplicationError, match="gap"):
            applier.apply_records(gapped)
        # The intact batch still applies (dup-free, contiguous).
        applier.apply_records(message)
        primary.close()

    def test_duplicate_delivery_is_idempotent(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 6)
        message = hub.next_batch(slot)
        assert applier.apply_records(message) > 0
        assert applier.apply_records(message) == 0  # resend: no-op
        _lsn, view = applier.read_view()
        assert view["x"] == 6
        primary.close()

    def test_restart_resumes_from_local_history(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 12)
        pump(hub, slot, applier)
        high_water = applier.applied_lsn
        applier.close()
        reborn = FollowerApplier(tmp_path / "f0")
        assert reborn.applied_lsn == high_water
        _lsn, view = reborn.read_view()
        assert view["x"] == 12
        # Re-registering at the resumed LSN ships no snapshot.
        slot2, initial2 = hub.register(reborn.applied_lsn, "f0")
        assert initial2 is None
        commit_value(primary, "y", 13)
        pump(hub, slot2, reborn)
        _lsn, view = reborn.read_view()
        assert view == {"x": 12, "y": 13}
        reborn.close()
        primary.close()

    def test_interrupted_install_wipes_on_restart(self, tmp_path):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 4)
        pump(hub, slot, applier)
        applier.close()
        # Simulate an interrupted snapshot install: segments exist but
        # every checkpoint is gone.
        for checkpoint in list(
            (tmp_path / "f0").glob("checkpoint-*.json")
        ):
            checkpoint.unlink()
        assert list_segments(tmp_path / "f0")
        fresh = FollowerApplier(tmp_path / "f0")
        assert fresh.applied_lsn == 0  # wiped; will ask for a snapshot
        assert not list_segments(tmp_path / "f0")
        primary.close()


@pytest.fixture
def decodes(monkeypatch):
    """Counts every :meth:`WalRecord.decode` call (a one-item list)."""
    count = [0]
    original = WalRecord.decode.__func__

    def counting(cls, line):
        count[0] += 1
        return original(cls, line)

    monkeypatch.setattr(WalRecord, "decode", classmethod(counting))
    return count


def ship_once(hub, slot, applier, decodes):
    """One batch for ``slot``: apply it, ack it; return
    ``(records shipped, records decoded while reading them)``."""
    before = decodes[0]
    message = hub.next_batch(slot)
    read = decodes[0] - before
    assert message is not None and message["kind"] == KIND_RECORDS
    applier.apply_records(message)
    hub.ack(slot, applier.applied_lsn)
    return len(message["records"]), read


class TestShipPosition:
    """Each slot resumes reading where its previous batch stopped."""

    def test_each_shipped_record_is_decoded_once(self, tmp_path, decodes):
        primary = open_primary(tmp_path / "p", segment_bytes=1500)
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 1)
        ship_once(hub, slot, applier, decodes)  # may scan from the start
        shipped = decoded = 0
        for value in range(2, 41):
            commit_value(primary, "x", value)
            if value == 20:
                primary.checkpoint()
            records, read = ship_once(hub, slot, applier, decodes)
            shipped += records
            decoded += read
            assert hub.next_batch(slot) is None
        assert decoded == shipped
        first_lsns = [
            segment_first_lsn(path) for path in list_segments(tmp_path / "p")
        ]
        assert len(first_lsns) >= 4  # three rotations and the checkpoint's
        assert slot.position[0] == first_lsns[-1]
        _lsn, view = applier.read_view()
        assert view["x"] == 40
        primary.close()

    def test_a_max_records_cut_resumes_mid_segment(self, tmp_path, decodes):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary, batch_records=3)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        for value in range(2, 6):
            commit_value(primary, "x", value)
        segment = list_segments(tmp_path / "p")[-1]
        ship_once(hub, slot, applier, decodes)  # may scan from the start
        while slot.cursor_lsn < primary.wal.durable_lsn:
            records, read = ship_once(hub, slot, applier, decodes)
            assert records == read <= 3
            assert slot.position[0] == segment_first_lsn(segment)
        assert slot.position[1] == segment.stat().st_size
        _lsn, view = applier.read_view()
        assert view["x"] == 5
        primary.close()

    def test_rotation_between_batches(self, tmp_path, decodes):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 2)
        pump(hub, slot, applier)
        primary.wal.rotate()
        commit_value(primary, "x", 3)
        records, read = ship_once(hub, slot, applier, decodes)
        assert records == read
        newest = list_segments(tmp_path / "p")[-1]
        assert slot.position == (
            segment_first_lsn(newest), newest.stat().st_size
        )
        _lsn, view = applier.read_view()
        assert view["x"] == 3
        primary.close()

    def test_retention_dropping_the_position_segment_is_no_loss(
        self, tmp_path, decodes
    ):
        primary = open_primary(tmp_path / "p", retain=1)
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 2)
        pump(hub, slot, applier)
        named = slot.position[0]
        primary.checkpoint()  # rotates, then drops the shipped segment
        assert named not in {
            segment_first_lsn(p) for p in list_segments(tmp_path / "p")
        }
        commit_value(primary, "x", 3)
        records, read = ship_once(hub, slot, applier, decodes)
        assert records == read
        assert slot.snapshots_sent == 1  # the initial one only
        _lsn, view = applier.read_view()
        assert view["x"] == 3
        primary.close()

    def test_retention_dropping_the_needed_segment_resets_the_position(
        self, tmp_path
    ):
        primary = open_primary(tmp_path / "p", retain=1)
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 2)
        pump(hub, slot, applier)
        assert slot.position is not None
        commit_value(primary, "x", 3)  # never shipped before the drop
        primary.checkpoint()
        message = hub.next_batch(slot)
        assert message["kind"] == KIND_SNAPSHOT
        assert slot.position is None
        applier.install_snapshot(message["state"], message["last_lsn"])
        hub.ack(slot, applier.applied_lsn)
        commit_value(primary, "x", 4)
        pump(hub, slot, applier)
        assert slot.position is not None
        _lsn, view = applier.read_view()
        assert view["x"] == 4
        primary.close()

    def test_reregistering_mid_segment_scans_once(self, tmp_path, decodes):
        primary = open_primary(tmp_path / "p")
        hub = ReplicationHub(primary)
        for value in range(2, 6):
            commit_value(primary, "x", value)
        records = scan_wal(tmp_path / "p").records
        middle = records[len(records) // 2].lsn
        slot, initial = hub.register(middle, "f0")
        assert initial is None and slot.position is None
        shipped = []
        while (message := hub.next_batch(slot)) is not None:
            shipped.extend(item["lsn"] for item in message["records"])
        assert shipped == [r.lsn for r in records if r.lsn > middle]
        commit_value(primary, "x", 6)
        before = decodes[0]
        message = hub.next_batch(slot)
        assert len(message["records"]) == decodes[0] - before > 0
        assert message["records"][0]["lsn"] == shipped[-1] + 1
        primary.close()

    def test_a_half_written_tail_line_stops_the_batch(self, tmp_path):
        points = CrashPoints()
        primary = open_primary(tmp_path / "p", crash_points=points)
        hub = ReplicationHub(primary)
        slot, initial = hub.register(0, "f0")
        applier = FollowerApplier(tmp_path / "f0")
        pump(hub, slot, applier, initial)
        commit_value(primary, "x", 2)
        pump(hub, slot, applier)
        position, durable = slot.position, primary.wal.durable_lsn
        segment = list_segments(tmp_path / "p")[-1]
        points.arm("wal.mid_record")
        with pytest.raises(SimulatedCrash):
            commit_value(primary, "x", 3)
        assert segment.stat().st_size > position[1]  # the half line
        # Even asked past the durable horizon, the read stops cleanly
        # at the half line and keeps its place in front of it.
        assert read_batch(
            tmp_path / "p", durable, up_to_lsn=durable + 5,
            position=position,
        ) == ([], position)
        assert hub.next_batch(slot) is None  # nothing new is durable
        assert slot.position == position
        primary.close(checkpoint=False)
