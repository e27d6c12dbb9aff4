"""Follower-side replication: continuous replay plus the link client.

A follower owns its WAL directory exclusively: shipped records are
appended **verbatim** (the canonical record encoding is deterministic,
so the follower's log is byte-identical to the primary's for the
shipped range) and fired, one by one, through the same
:meth:`~repro.protocol.state.ProtocolState.apply` the primary and the
recovery path use — a follower holds the protocol state and never a
manager.  It therefore *is* a primary crash image at LSN
``applied_lsn`` at all times — which is exactly why promotion can run
the stock ``recover --verify`` gate over the follower directory and
why bounded-stale follower reads are formally correct: the view served
at ``applied_lsn`` is a committed prefix the paper's version functions
are allowed to read.

Acks are sent only after fsync, so an acked LSN survives a follower
kill; with ``sync_replicas >= 1`` on the primary this is what makes
every acked commit survive promotion.
"""

from __future__ import annotations

import asyncio
import random
import time
import zlib
from pathlib import Path
from typing import Any, Callable

from ..durability.snapshot import CheckpointStore
from ..durability.wal import (
    WriteAheadLog,
    list_segments,
    scan_wal,
    truncate_torn_tail,
)
from ..errors import RecoveryError
from ..framing import LineProtocol
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..protocol.state import ProtocolState, encode_state
from .messages import (
    KIND_RECORDS,
    KIND_SNAPSHOT,
    REPL_MAX_FRAME_BYTES,
    ReplicationError,
    ack_message,
    decode_message,
    encode_message,
    hello_message,
    records_from_payload,
)

#: The follower WAL never group-commits on its own schedule: the
#: applier fsyncs explicitly once per shipped batch, before acking.
_NEVER_FLUSH = 1e18


class FollowerApplier:
    """Continuous replay of shipped records into a follower WAL dir."""

    def __init__(
        self,
        wal_dir: "Path | str",
        *,
        segment_bytes: int = 0,
        retain: int = 3,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: "Callable[[], float] | None" = None,
    ) -> None:
        self._dir = Path(wal_dir)
        self._dir.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self._checkpoints = CheckpointStore(
            self._dir, retain=retain, registry=registry
        )
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        self._wall = wall_clock if wall_clock is not None else time.time
        self.state: ProtocolState | None = None
        self.wal: WriteAheadLog | None = None
        self.applied_lsn = 0
        self.primary_durable_lsn = 0
        self.lag_ms = 0.0
        self.snapshots_installed = 0
        self.records_applied = 0
        self.load_existing()

    # -- startup -----------------------------------------------------------

    def load_existing(self) -> None:
        """Resume from what the directory already holds, if anything.

        A follower directory is always checkpoint-seeded (snapshot
        install) before any record lands, so segments without a usable
        checkpoint mean an interrupted install — wipe and start fresh
        (``applied_lsn = 0`` makes the handshake ask for a snapshot).
        """
        loaded = self._checkpoints.load_newest()
        if loaded is None:
            if list_segments(self._dir):
                self._wipe()
            return
        scan = scan_wal(self._dir)
        truncate_torn_tail(scan)
        state_dict, checkpoint_lsn = loaded
        state = ProtocolState.load(state_dict)
        try:
            applied = state.redo(scan.records, checkpoint_lsn)
        except RecoveryError as error:
            raise ReplicationError(f"follower log: {error}") from None
        self.state = state
        self.applied_lsn = applied
        self.primary_durable_lsn = max(
            self.primary_durable_lsn, applied
        )
        self._open_wal()
        self._publish_gauges()

    def _wipe(self) -> None:
        if self.wal is not None and not self.wal.closed:
            self.wal.close()
        self.wal = None
        for path in list_segments(self._dir):
            path.unlink()
        for path in self._checkpoints.checkpoints():
            path.unlink()
        for leftover in self._dir.glob("*.tmp"):
            leftover.unlink()

    def _open_wal(self) -> None:
        self.wal = WriteAheadLog(
            self._dir,
            next_lsn=self.applied_lsn + 1,
            flush_interval=_NEVER_FLUSH,
            segment_bytes=self.segment_bytes,
            registry=self._registry,
            clock=self._clock,
        )

    # -- the two message handlers -----------------------------------------

    def install_snapshot(
        self, state_dict: dict[str, Any], last_lsn: int
    ) -> None:
        """Replace local history with a shipped checkpoint state."""
        started = self._clock()
        self._wipe()
        self._checkpoints.write(encode_state(state_dict), last_lsn)
        self.state = ProtocolState.load(state_dict)
        self.applied_lsn = last_lsn
        self.primary_durable_lsn = max(
            self.primary_durable_lsn, last_lsn
        )
        self.snapshots_installed += 1
        self._open_wal()
        self._tracer.record(
            "repl.apply",
            "snapshot",
            start=started,
            end=self._clock(),
            last_lsn=last_lsn,
        )
        if self._registry is not None:
            self._registry.counter("repl.apply.snapshots").inc()
        self._publish_gauges()

    def apply_records(self, payload: dict[str, Any]) -> int:
        """Apply one ``records`` message; fsync; return records applied.

        Records must extend ``applied_lsn`` contiguously (already-seen
        LSNs are skipped — resends after a reconnect are harmless); a
        gap is a protocol violation and the link must re-handshake.
        """
        if self.state is None or self.wal is None:
            raise ReplicationError(
                "follower has no base state: snapshot required"
            )
        records = records_from_payload(payload)
        started = self._clock()
        applied = 0
        for record in records:
            if record.lsn <= self.applied_lsn:
                continue
            if record.lsn != self.applied_lsn + 1:
                raise ReplicationError(
                    f"ship gap: applied {self.applied_lsn}, "
                    f"received {record.lsn}"
                )
            self.state.apply_record(record)
            written = self.wal.append(record.op, record.txn, record.data)
            assert written.lsn == record.lsn
            self.applied_lsn = record.lsn
            applied += 1
        if applied:
            self.wal.flush()
            self.records_applied += applied
            self._tracer.record(
                "repl.apply",
                "records",
                start=started,
                end=self._clock(),
                records=applied,
                applied_lsn=self.applied_lsn,
            )
            if self._registry is not None:
                self._registry.counter("repl.apply.records").inc(applied)
        horizon = int(payload.get("durable_lsn", self.applied_lsn))
        self.primary_durable_lsn = max(self.primary_durable_lsn, horizon)
        sent_at = payload.get("sent_at")
        if isinstance(sent_at, (int, float)):
            self.lag_ms = max(0.0, (self._wall() - sent_at) * 1000.0)
        self._publish_gauges()
        return applied

    # -- views and introspection ------------------------------------------

    @property
    def lag_lsn(self) -> int:
        return max(0, self.primary_durable_lsn - self.applied_lsn)

    def read_view(self) -> "tuple[int, dict[str, int]]":
        """``(applied_lsn, committed root view)`` — the stale read."""
        if self.state is None:
            raise ReplicationError(
                "follower has no state yet (no snapshot installed)"
            )
        return self.applied_lsn, self.state.root_view()

    def status(self) -> dict[str, Any]:
        return {
            "role": "follower",
            "applied_lsn": self.applied_lsn,
            "primary_durable_lsn": self.primary_durable_lsn,
            "lag_lsn": self.lag_lsn,
            "lag_ms": round(self.lag_ms, 3),
            "snapshots_installed": self.snapshots_installed,
            "records_applied": self.records_applied,
        }

    def _publish_gauges(self) -> None:
        if self._registry is None:
            return
        self._registry.gauge("repl.applied_lsn").set(self.applied_lsn)
        self._registry.gauge("repl.lag_lsn").set(self.lag_lsn)
        self._registry.gauge("repl.lag_ms").set(round(self.lag_ms, 3))

    def close(self) -> None:
        if self.wal is not None and not self.wal.closed:
            self.wal.close()


class ReconnectBackoff:
    """Capped, jittered exponential backoff for reconnect loops.

    The jitter stream is an explicit :class:`random.Random` seeded at
    construction, never the global RNG: under the virtual clock two
    runs with the same seed sleep for exactly the same sequence of
    delays, so reconnect storms stay reproducible (in the DES and the
    fuzzer both).  Each failed attempt doubles the delay up to ``cap``;
    jitter subtracts up to ``jitter`` fraction of it, de-synchronizing
    a herd of followers that all lost the same primary at once.
    """

    def __init__(
        self,
        *,
        base: float = 0.2,
        cap: float = 5.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self.attempt = 0
        self._rng = random.Random(seed)

    def next_delay(self) -> float:
        """The next sleep, growing exponentially until ``cap``."""
        raw = min(self.cap, self.base * self.multiplier**self.attempt)
        self.attempt += 1
        return raw * (1.0 - self.jitter * self._rng.random())

    def reset(self) -> None:
        """A successful (re)connection: start the ramp over."""
        self.attempt = 0


def _node_seed(node: str) -> int:
    """Deterministic per-node jitter seed (stable across processes)."""
    return zlib.crc32(node.encode("utf-8"))


class _PrimaryConnection(LineProtocol):
    """The follower's end of one link: every shipped message is applied
    (and acked) inside the read callback that completed it."""

    def __init__(self, link: "FollowerLink") -> None:
        super().__init__(REPL_MAX_FRAME_BYTES)
        self._link = link

    def line_received(self, line: bytes) -> None:
        try:
            applied_lsn = self._link._apply(decode_message(line))
        except (ReplicationError, KeyError, TypeError, ValueError):
            self.transport.close()  # re-handshake on a new connection
            return
        self.transport.write(encode_message(ack_message(applied_lsn)))


class FollowerLink:
    """The follower's connection to the primary, with reconnect."""

    def __init__(
        self,
        applier: FollowerApplier,
        host: str,
        port: int,
        *,
        node: str = "follower",
        retry_delay: float = 0.2,
        retry_cap: float = 5.0,
        backoff: ReconnectBackoff | None = None,
    ) -> None:
        self._applier = applier
        self.host = host
        self.port = port
        self.node = node
        self.retry_delay = retry_delay
        self.backoff = (
            backoff
            if backoff is not None
            else ReconnectBackoff(
                base=retry_delay,
                cap=retry_cap,
                seed=_node_seed(node),
            )
        )
        self.connected = False
        self._stopped = False
        self._connection: _PrimaryConnection | None = None

    def stop(self) -> None:
        """Stop applying: the current connection closes at once."""
        self._stopped = True
        if self._connection is not None:
            self._connection.transport.close()

    async def run(self) -> None:
        """Connect, stream, reconnect — until cancelled or stopped."""
        loop = asyncio.get_running_loop()
        while not self._stopped:
            try:
                _, connection = await loop.create_connection(
                    lambda: _PrimaryConnection(self), self.host, self.port
                )
            except OSError:
                await asyncio.sleep(self.backoff.next_delay())
                continue
            self._connection = connection
            try:
                await self._stream(connection)
            except ConnectionError:
                pass
            finally:
                self.connected = False
                self._connection = None
                connection.transport.close()
                await connection.wait_closed()
            if not self._stopped:
                await asyncio.sleep(self.backoff.next_delay())

    async def _stream(self, connection: _PrimaryConnection) -> None:
        """Say hello, then wait while the connection applies what the
        primary ships, until either side closes it."""
        connection.transport.write(
            encode_message(
                hello_message(self._applier.applied_lsn, self.node)
            )
        )
        await connection.drain()
        self.connected = True
        self.backoff.reset()
        await connection.wait_closed()

    def _apply(self, message: dict[str, Any]) -> int:
        """Apply one message from the primary (a snapshot or a records
        batch); returns the LSN to ack."""
        kind = message.get("kind")
        if kind == KIND_SNAPSHOT:
            self._applier.install_snapshot(
                message["state"], int(message["last_lsn"])
            )
        elif kind == KIND_RECORDS:
            self._applier.apply_records(message)
        else:
            raise ReplicationError(
                f"unexpected message kind {kind!r} from primary"
            )
        return self._applier.applied_lsn
