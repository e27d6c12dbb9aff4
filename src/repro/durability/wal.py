"""The segmented append-only write-ahead log with group commit.

Durability contract
-------------------
:meth:`WriteAheadLog.append` hands the encoded record to the OS
(``os.write``) before returning, so a *process* crash (SIGKILL) loses
nothing that was appended.  The ``fsync`` that makes records survive a
*power* loss is batched — group commit: durable records (commit, abort,
undo-commit) arm a flush deadline ``flush_interval`` seconds out, and
one fsync then covers every record appended since the previous flush.
``flush_interval <= 0`` degenerates to synchronous commit (fsync before
``append`` returns for durable records).

The log is segmented: ``wal-{first_lsn:012d}.jsonl``.  A new segment
starts at every open and at every checkpoint (:meth:`rotate`), so
checkpoint retention can drop whole segment files whose records are
all covered by the oldest retained checkpoint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..errors import DurabilityError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from .crashpoints import NULL_CRASH_POINTS, CrashPoints, SimulatedCrash
from .records import TornRecord, WalRecord

SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"


def segment_name(first_lsn: int) -> str:
    return f"{SEGMENT_PREFIX}{first_lsn:012d}{SEGMENT_SUFFIX}"


def segment_first_lsn(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        raise DurabilityError(
            f"not a WAL segment file name: {path.name}"
        ) from None


def list_segments(wal_dir: Path) -> list[Path]:
    """WAL segment files in LSN order."""
    return sorted(
        (
            path
            for path in wal_dir.iterdir()
            if path.name.startswith(SEGMENT_PREFIX)
            and path.name.endswith(SEGMENT_SUFFIX)
        ),
        key=segment_first_lsn,
    )


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Scanning (recovery side)
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    """Everything recovery needs to know about the on-disk log."""

    records: list[WalRecord]
    segments: list[Path]
    torn: tuple[Path, int] | None = None  # (path, bytes to keep)
    torn_reason: str | None = None

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else 0


def scan_wal(wal_dir: Path) -> ScanResult:
    """Read and verify every segment, detecting a torn tail.

    A damaged line is a *torn tail* only when it sits at the end of the
    newest segment with no valid record after it — the signature of a
    crash mid-append.  Damage anywhere else (or an LSN discontinuity)
    is corruption and raises :class:`DurabilityError`; recovery must
    not guess around missing history.
    """
    segments = list_segments(wal_dir)
    records: list[WalRecord] = []
    torn: tuple[Path, int] | None = None
    torn_reason: str | None = None
    for index, path in enumerate(segments):
        is_last = index == len(segments) - 1
        data = path.read_bytes()
        offset = 0
        expected_first = segment_first_lsn(path)
        saw_first = False
        while offset < len(data):
            newline = data.find(b"\n", offset)
            line = data[offset:newline] if newline >= 0 else data[offset:]
            line_complete = newline >= 0
            try:
                if not line_complete:
                    raise TornRecord("record not newline-terminated")
                record = WalRecord.decode(line)
            except TornRecord as error:
                if not is_last:
                    raise DurabilityError(
                        f"corrupt WAL record mid-log in {path.name}: "
                        f"{error}"
                    ) from None
                _require_no_valid_suffix(path, data, offset)
                torn = (path, offset)
                torn_reason = str(error)
                break
            if not saw_first:
                if record.lsn != expected_first:
                    raise DurabilityError(
                        f"segment {path.name} starts at lsn "
                        f"{record.lsn}, expected {expected_first}"
                    )
                saw_first = True
            if records and record.lsn != records[-1].lsn + 1:
                raise DurabilityError(
                    f"LSN discontinuity at {path.name}: "
                    f"{records[-1].lsn} -> {record.lsn}"
                )
            records.append(record)
            offset = newline + 1
        if torn is not None:
            break
    return ScanResult(
        records=records,
        segments=segments,
        torn=torn,
        torn_reason=torn_reason,
    )


def _require_no_valid_suffix(path: Path, data: bytes, offset: int) -> None:
    """A torn tail must be *tail*: no decodable record may follow."""
    rest = data[offset:]
    for line in rest.split(b"\n")[1:]:
        if not line:
            continue
        try:
            WalRecord.decode(line)
        except TornRecord:
            continue
        raise DurabilityError(
            f"corrupt record followed by a valid one in {path.name}; "
            "refusing to truncate non-tail damage"
        )


#: Where a ship cursor resumes: ``(first LSN of the segment, byte offset
#: of the next unread record in it)``.
ShipPosition = tuple[int, int]


def read_batch(
    wal_dir: Path,
    after_lsn: int,
    *,
    up_to_lsn: int,
    max_records: int = 512,
    position: "ShipPosition | None" = None,
) -> "tuple[list[WalRecord], ShipPosition | None] | None":
    """Read records ``after_lsn < lsn <= up_to_lsn`` off the disk log.

    This is the replication ship cursor: it reads segment *files*, never
    the live appender, so the primary's manager is untouched.  Damaged
    or incomplete lines simply end the batch — the caller only asks for
    LSNs at or below the primary's ``durable_lsn``, which are guaranteed
    whole, so a short read just means the bytes are still in flight.

    ``position`` is where the previous batch stopped.  When it names the
    segment holding ``after_lsn + 1``, reading starts at its offset, so a
    batch decodes only the records appended since; otherwise (no
    position yet, or that record opens a later segment) the segment is
    read from its start.  Every record read is CRC-checked and must
    continue the LSN sequence either way.

    Returns ``(records, position)`` — the new position is where the
    record after the last one returned starts — or ``None`` when the
    cursor is *lost*: checkpoint retention has deleted the segment
    holding ``after_lsn + 1``, so the caller must fall back to snapshot
    shipping.
    """
    if after_lsn >= up_to_lsn:
        return [], position
    segments = list_segments(wal_dir)
    if not segments:
        return None
    want = after_lsn + 1
    start_index: int | None = None
    for index, path in enumerate(segments):
        if segment_first_lsn(path) <= want:
            start_index = index
        else:
            break
    if start_index is None:
        return None  # history before the oldest retained segment
    batch: list[WalRecord] = []
    for path in segments[start_index:]:
        first_lsn = segment_first_lsn(path)
        base = 0
        if position is not None and position[0] == first_lsn:
            base = position[1]
        with open(path, "rb") as handle:
            handle.seek(base)
            data = handle.read()
        offset = 0
        while offset < len(data):
            start, newline = offset, data.find(b"\n", offset)
            if newline < 0:
                break  # in-flight append; stop cleanly
            try:
                record = WalRecord.decode(data[start:newline])
            except TornRecord:
                break  # torn tail; nothing durable beyond it
            offset = newline + 1
            if record.lsn <= after_lsn:
                continue  # before the cursor: met only in a scan from 0
            if record.lsn != want:
                return None  # hole: cursor points into dropped history
            if record.lsn > up_to_lsn:
                return batch, (first_lsn, base + start)
            batch.append(record)
            want = record.lsn + 1
            if len(batch) >= max_records:
                return batch, (first_lsn, base + offset)
        position = (first_lsn, base + offset)
    return batch, position


def truncate_torn_tail(scan: ScanResult) -> bool:
    """Physically truncate a torn tail found by :func:`scan_wal`."""
    if scan.torn is None:
        return False
    path, keep = scan.torn
    with open(path, "rb+") as handle:
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())
    return True


# ---------------------------------------------------------------------------
# Appending (service side)
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Appender over a fresh segment starting at ``next_lsn``.

    The appender never reopens old segments — recovery truncates any
    torn tail *before* constructing one, and each open starts a new
    segment file, so the append path is purely sequential.
    """

    def __init__(
        self,
        wal_dir: "Path | str",
        *,
        next_lsn: int = 1,
        flush_interval: float = 0.0,
        segment_bytes: int = 0,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        crash_points: CrashPoints | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._dir = Path(wal_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._next_lsn = next_lsn
        self.flush_interval = flush_interval
        #: Roll to a new segment once the current one reaches this many
        #: bytes (0 = only roll at checkpoints).  Bounds the one
        #: start-of-segment scan a ship cursor without a position pays
        #: (after registration, a reconnect or a snapshot), and lets
        #: checkpoint retention drop history in smaller files.
        self.segment_bytes = segment_bytes
        #: Called with the new durable LSN after every fsync that made
        #: records durable — the replication shipper's wakeup.
        self.on_flush: Callable[[int], None] | None = None
        self._durable_lsn = next_lsn - 1
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: (txn, causal parent span id, lsn) of durable records whose
        #: fsync is still pending; drained by :meth:`flush` into one
        #: ``wal.fsync`` span per waiting transaction.
        self._pending_durable: list[tuple[str, int | None, int]] = []
        self._points = (
            crash_points if crash_points is not None else NULL_CRASH_POINTS
        )
        self._clock = clock
        self._fd: int | None = None
        self._path: Path | None = None
        # Reused across appends: records serialise straight into this
        # buffer (see WalRecord.encode_into), so the append path
        # allocates no per-record line objects.
        self._encode_buffer = bytearray()
        self._written = 0  # bytes handed to the OS, current segment
        self._durable = 0  # bytes known fsynced, current segment
        self._pending_records = 0
        self._flush_due: float | None = None
        self._durable_lengths: dict[str, int] = {}
        self._open_segment()

    # -- lifecycle ---------------------------------------------------------

    def _open_segment(self) -> None:
        path = self._dir / segment_name(self._next_lsn)
        if path.exists():
            # A crash right after rotation (or a torn tail truncated to
            # nothing) leaves an empty segment with this exact name;
            # adopt its slot.  A non-empty one would mean the caller
            # skipped recovery.
            if path.stat().st_size == 0:
                path.unlink()
            else:
                raise DurabilityError(
                    f"segment {path.name} already exists"
                )
        self._fd = os.open(
            path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
        )
        self._path = path
        self._written = 0
        self._durable = 0
        self._pending_records = 0
        self._flush_due = None
        self._durable_lengths[path.name] = 0
        # Make the segment file itself durable (its name in the dir).
        _fsync_dir(self._dir)

    def rotate(self) -> None:
        """Flush and start a new segment (called at checkpoint)."""
        self._require_open()
        self.flush()
        assert self._fd is not None and self._path is not None
        os.close(self._fd)
        self._fd = None
        self._open_segment()

    def close(self) -> None:
        if self._fd is None:
            return
        try:
            self.flush()
        finally:
            os.close(self._fd)
            self._fd = None

    @property
    def closed(self) -> bool:
        return self._fd is None

    def _require_open(self) -> None:
        if self._fd is None:
            raise DurabilityError("WAL is closed")

    # -- append ------------------------------------------------------------

    def append(self, op: str, txn: str, data: dict[str, Any]) -> WalRecord:
        """Append one record; bytes reach the OS before returning.

        Durable ops arm the group-commit flush deadline (or fsync
        immediately when ``flush_interval <= 0``).
        """
        self._require_open()
        assert self._fd is not None
        record = WalRecord(self._next_lsn, op, txn, data)
        buffer = self._encode_buffer
        buffer.clear()
        length = record.encode_into(buffer)
        if self._points.hit("wal.mid_record"):
            # A torn write: half the record reaches the OS, then death.
            os.write(self._fd, memoryview(buffer)[: max(1, length // 2)])
            raise SimulatedCrash("wal.mid_record")
        os.write(self._fd, buffer)
        self._next_lsn += 1
        self._written += length
        self._pending_records += 1
        if self._registry is not None:
            self._registry.counter("wal.records").inc()
            self._registry.counter("wal.bytes").inc(length)
        if record.durable:
            if self._tracer.enabled:
                # Capture the causal parent *now* — the commit/abort
                # request span is still open — for the fsync span that
                # will only be recorded when the group flushes.
                self._pending_durable.append(
                    (txn, self._tracer.current_span_id(txn), record.lsn)
                )
            if self.flush_interval <= 0:
                self.flush()
            elif self._flush_due is None:
                self._flush_due = self._clock() + self.flush_interval
        if self.segment_bytes > 0 and self._written >= self.segment_bytes:
            self.rotate()
        return record

    # -- group commit ------------------------------------------------------

    def flush(self) -> int:
        """fsync pending bytes; returns how many records became durable."""
        self._require_open()
        assert self._fd is not None and self._path is not None
        if self._durable == self._written:
            self._flush_due = None
            self._pending_records = 0
            self._pending_durable.clear()
            self._durable_lsn = self._next_lsn - 1
            return 0
        batch = self._pending_records
        self._points.check("wal.before_flush")
        started = self._clock()
        os.fsync(self._fd)
        finished = self._clock()
        elapsed_ms = (finished - started) * 1000.0
        self._durable = self._written
        self._durable_lengths[self._path.name] = self._durable
        self._pending_records = 0
        self._flush_due = None
        if self._registry is not None:
            self._registry.counter("wal.fsyncs").inc()
            self._registry.histogram("wal.flush.latency_ms").observe(
                elapsed_ms
            )
            self._registry.histogram("wal.flush.batch_records").observe(
                batch
            )
        if self._pending_durable:
            # One fsync made every waiting transaction durable; give
            # each its own span, parented where its record was appended
            # (that request span may have closed already — group
            # commit outlives the commit reply by design).
            for txn, parent, lsn in self._pending_durable:
                self._tracer.record(
                    "wal.fsync",
                    txn,
                    start=started,
                    end=finished,
                    parent=parent,
                    lsn=lsn,
                    batch_records=batch,
                )
            self._pending_durable.clear()
        self._points.check("wal.after_flush")
        self._durable_lsn = self._next_lsn - 1
        if self.on_flush is not None:
            self.on_flush(self._durable_lsn)
        return batch

    def maybe_flush(self) -> int:
        """Flush if the group-commit deadline has passed."""
        if self._flush_due is not None and self._clock() >= self._flush_due:
            return self.flush()
        return 0

    # -- introspection -----------------------------------------------------

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def durable_lsn(self) -> int:
        """Highest LSN known fsynced — the replication ship horizon."""
        return self._durable_lsn

    @property
    def pending_records(self) -> int:
        return self._pending_records

    @property
    def flush_due(self) -> float | None:
        return self._flush_due

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def current_segment(self) -> Path | None:
        return self._path

    def durable_lengths(self) -> dict[str, int]:
        """Per-segment byte counts known to have reached stable storage.

        Only segments this appender wrote appear; older segments (from
        previous incarnations) were flushed before their rotation and
        are fully durable.  The crash harness uses this map to simulate
        a power loss by truncating surviving copies to durable length.
        """
        lengths = dict(self._durable_lengths)
        for name in list(lengths):
            if self._path is not None and name == self._path.name:
                continue
            # Rotated-away segments were flushed on rotate/close.
            path = self._dir / name
            if path.exists():
                lengths[name] = path.stat().st_size
        return lengths


def cleanup_segments(wal_dir: Path, safe_lsn: int) -> list[Path]:
    """Delete segments whose records are all ``<= safe_lsn``.

    ``safe_lsn`` is the oldest *retained* checkpoint's last LSN: every
    record at or below it is reachable from a checkpoint, so segments
    entirely below the next segment's start can go.  The newest segment
    is never deleted.
    """
    segments = list_segments(wal_dir)
    removed: list[Path] = []
    for path, successor in zip(segments, segments[1:]):
        if segment_first_lsn(successor) <= safe_lsn + 1:
            path.unlink()
            removed.append(path)
        else:
            break
    return removed
