"""Primary-side replication: the hub, ship cursors, and the listener.

The hub is transport-agnostic on purpose: the deterministic fuzzer
drives :meth:`ReplicationHub.register` / :meth:`next_batch` /
:meth:`ack` directly with coroutine followers on the virtual-clock
loop, while production wraps the same core in
:class:`ReplicationListener` (a TCP acceptor whose connections read
through :class:`repro.framing.LineProtocol`) and one
:class:`WalShipper` per connection.

Ship batches are read from the segment *files* on disk
(:func:`repro.durability.wal.read_batch`), never from the live
appender, so the manager is never touched.  Shippers do run on the
server's event loop, beside the dispatcher, so each slot keeps the
byte position where its next unshipped record starts: a batch costs
the bytes it ships, not a decode of its segment from the start (that
full scan is paid once per registration, reconnect or snapshot).  The
only coupling to the write path is the WAL's ``on_flush`` hook: every
group-commit fsync advances the ship horizon and wakes the shippers —
records are shipped exactly when they became durable on the primary,
never earlier (a follower can never hold history the primary itself
would lose in a crash).

Sync replication: with ``sync_replicas = k``, a commit's reply is
withheld (parked by the dispatcher) until at least ``k`` followers
have acked its commit LSN; :attr:`replicated_lsn` is the k-th highest
follower ack and :attr:`on_replicated` tells the dispatcher when it
advances.  Checkpoint retention may delete a lagging follower's next
segment; the hub then falls back to snapshot shipping automatically
(the cursor is *lost*, not an error).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..durability.manager import DurableTransactionManager
from ..durability.wal import ShipPosition, read_batch
from ..framing import LineProtocol
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from .messages import (
    KIND_ACK,
    KIND_HELLO,
    REPL_MAX_FRAME_BYTES,
    ReplicationError,
    decode_message,
    encode_message,
    records_message,
    snapshot_message,
)

#: Idle shippers emit an empty records frame this often so follower
#: lag gauges stay fresh even on a quiet primary.
HEARTBEAT_INTERVAL = 0.5


@dataclass
class FollowerSlot:
    """One registered follower's ship cursor and ack state."""

    slot_id: int
    node: str
    cursor_lsn: int
    #: Where the record after ``cursor_lsn`` starts on disk (``None``:
    #: not known yet, so the next batch scans its segment from the
    #: start).
    position: ShipPosition | None = None
    acked_lsn: int = 0
    wake: asyncio.Event = field(default_factory=asyncio.Event)
    snapshots_sent: int = 0
    batches_sent: int = 0
    records_sent: int = 0


class ReplicationHub:
    """Fan-out of the primary's durable WAL suffix to N followers."""

    def __init__(
        self,
        manager: DurableTransactionManager,
        *,
        sync_replicas: int = 0,
        batch_records: int = 512,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: "Callable[[], float] | None" = None,
    ) -> None:
        if manager.wal is None or manager.checkpoints is None:
            raise ReplicationError(
                "replication requires a WAL-backed manager"
            )
        self._manager = manager
        self._wal_dir = manager.wal.directory
        self._checkpoints = manager.checkpoints
        self.sync_replicas = sync_replicas
        self.batch_records = batch_records
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock
        # ``sent_at`` stamps cross a process boundary, so they come
        # from wall time (comparable between processes on one host);
        # the fuzzer overrides both clocks with the shared virtual one.
        self._wall = wall_clock if wall_clock is not None else time.time
        self._slots: dict[int, FollowerSlot] = {}
        self._next_slot = 1
        self._replicated_lsn = 0
        #: Dispatcher hook: called with the new replicated LSN whenever
        #: it advances, so sync-commit waiters can be released.
        self.on_replicated: Callable[[int], None] | None = None
        manager.wal.on_flush = self.notify_durable

    # -- write-path hook ---------------------------------------------------

    @property
    def durable_lsn(self) -> int:
        wal = self._manager.wal
        return wal.durable_lsn if wal is not None else 0

    def notify_durable(self, lsn: int) -> None:
        """The WAL fsynced up to ``lsn``: wake every shipper."""
        for slot in self._slots.values():
            slot.wake.set()
        if self._registry is not None:
            self._registry.gauge("repl.durable_lsn").set(lsn)
        if self.sync_replicas == 0 and self.on_replicated is not None:
            # Nothing parks on replication acks; durability is the bar.
            self.on_replicated(lsn)

    # -- follower registration --------------------------------------------

    def register(
        self, from_lsn: int, node: str
    ) -> "tuple[FollowerSlot, dict[str, Any] | None]":
        """Admit a follower at ``from_lsn``.

        Returns the slot plus an initial snapshot message when the
        follower is fresh (``from_lsn == 0``) — a follower can only
        recover from a checkpoint, so it must be seeded with one.
        """
        slot = FollowerSlot(
            slot_id=self._next_slot, node=node, cursor_lsn=from_lsn
        )
        self._next_slot += 1
        initial: dict[str, Any] | None = None
        if from_lsn == 0:
            initial = self._snapshot_for(slot)
        self._slots[slot.slot_id] = slot
        self._gauge_followers()
        return slot, initial

    def unregister(self, slot: FollowerSlot) -> None:
        self._slots.pop(slot.slot_id, None)
        self._gauge_followers()
        self._advance_replicated()

    def _gauge_followers(self) -> None:
        if self._registry is not None:
            self._registry.gauge("repl.followers").set(len(self._slots))

    def _snapshot_for(self, slot: FollowerSlot) -> dict[str, Any]:
        loaded = self._checkpoints.load_newest()
        if loaded is None:  # pragma: no cover — open() always anchors
            raise ReplicationError(
                "primary has no usable checkpoint to ship"
            )
        state, last_lsn = loaded
        slot.cursor_lsn = last_lsn
        slot.position = None
        slot.snapshots_sent += 1
        if self._registry is not None:
            self._registry.counter("repl.ship.snapshots").inc()
        return snapshot_message(state, last_lsn)

    # -- shipping ----------------------------------------------------------

    def next_batch(self, slot: FollowerSlot) -> "dict[str, Any] | None":
        """The next message for ``slot``, or ``None`` when caught up.

        Returns a ``records`` message for the durable suffix past the
        slot's cursor, or a ``snapshot`` message when retention has
        dropped the cursor's segment (self-healing resync).
        """
        horizon = self.durable_lsn
        if slot.cursor_lsn >= horizon:
            return None
        started = self._clock()
        read = read_batch(
            self._wal_dir,
            slot.cursor_lsn,
            up_to_lsn=horizon,
            max_records=self.batch_records,
            position=slot.position,
        )
        if read is None:
            return self._snapshot_for(slot)
        batch, slot.position = read
        if not batch:
            return None
        slot.cursor_lsn = batch[-1].lsn
        slot.batches_sent += 1
        slot.records_sent += len(batch)
        if self._registry is not None:
            self._registry.counter("repl.ship.batches").inc()
            self._registry.counter("repl.ship.records").inc(len(batch))
        self._tracer.record(
            "repl.ship",
            slot.node,
            start=started,
            end=self._clock(),
            records=len(batch),
            to_lsn=slot.cursor_lsn,
        )
        return records_message(batch, horizon, self._wall())

    def heartbeat(self) -> dict[str, Any]:
        """An empty records frame carrying the current ship horizon."""
        return records_message([], self.durable_lsn, self._wall())

    # -- acks and the replicated horizon -----------------------------------

    def ack(self, slot: FollowerSlot, applied_lsn: int) -> None:
        if applied_lsn > slot.acked_lsn:
            slot.acked_lsn = applied_lsn
            self._advance_replicated()

    @property
    def replicated_lsn(self) -> int:
        return self._replicated_lsn

    def _advance_replicated(self) -> None:
        if self.sync_replicas <= 0:
            return
        acks = sorted(
            (slot.acked_lsn for slot in self._slots.values()),
            reverse=True,
        )
        level = (
            acks[self.sync_replicas - 1]
            if len(acks) >= self.sync_replicas
            else 0
        )
        if level > self._replicated_lsn:
            self._replicated_lsn = level
            if self._registry is not None:
                self._registry.gauge("repl.replicated_lsn").set(level)
            if self.on_replicated is not None:
                self.on_replicated(level)

    # -- introspection -----------------------------------------------------

    def status(self) -> dict[str, Any]:
        return {
            "role": "primary",
            "sync_replicas": self.sync_replicas,
            "durable_lsn": self.durable_lsn,
            "replicated_lsn": self._replicated_lsn,
            "followers": [
                {
                    "node": slot.node,
                    "cursor_lsn": slot.cursor_lsn,
                    "acked_lsn": slot.acked_lsn,
                    "snapshots_sent": slot.snapshots_sent,
                    "records_sent": slot.records_sent,
                }
                for slot in self._slots.values()
            ],
        }

    def close(self) -> None:
        wal = self._manager.wal
        if wal is not None and wal.on_flush == self.notify_durable:
            wal.on_flush = None
        self._slots.clear()


class WalShipper:
    """One connection's ship loop: tail the hub, push, heartbeat."""

    def __init__(
        self,
        hub: ReplicationHub,
        slot: FollowerSlot,
        link: LineProtocol,
        *,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
    ) -> None:
        self._hub = hub
        self._slot = slot
        self._link = link
        self._heartbeat = heartbeat_interval

    async def run(self) -> None:
        """Ship until the connection is lost (or the task cancelled)."""
        try:
            while True:
                # Clear before reading: a flush landing mid-read leaves
                # the event set, so the next iteration re-reads instead
                # of sleeping through it.
                self._slot.wake.clear()
                message = self._hub.next_batch(self._slot)
                if message is None:
                    try:
                        await asyncio.wait_for(
                            self._slot.wake.wait(), self._heartbeat
                        )
                    except asyncio.TimeoutError:
                        message = self._hub.heartbeat()
                    else:
                        continue
                self._link.transport.write(encode_message(message))
                await self._link.drain()
        except ConnectionError:
            pass


class _FollowerConnection(LineProtocol):
    """The primary's end of one follower link: a ``hello``, then acks.

    The hello registers the follower (writing its initial snapshot, if
    any) and starts the connection's :class:`WalShipper`; losing the
    connection stops the shipper and unregisters the slot.
    """

    def __init__(self, listener: "ReplicationListener") -> None:
        super().__init__(REPL_MAX_FRAME_BYTES)
        self._listener = listener
        self._hub = listener.hub
        self._slot: FollowerSlot | None = None
        self._shipper: asyncio.Task | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._listener.links.add(self)

    def line_received(self, line: bytes) -> None:
        try:
            message = decode_message(line)
            if self._slot is None:
                self._hello(message)
            elif message.get("kind") == KIND_ACK:
                self._hub.ack(self._slot, int(message["applied_lsn"]))
        except (ReplicationError, KeyError, TypeError, ValueError):
            self.transport.close()

    def _hello(self, hello: dict[str, Any]) -> None:
        if hello.get("kind") != KIND_HELLO:
            raise ReplicationError(
                f"expected hello, got {hello.get('kind')!r}"
            )
        self._slot, initial = self._hub.register(
            int(hello.get("from_lsn", 0)),
            str(hello.get("node", "follower")),
        )
        if initial is not None:
            self.transport.write(encode_message(initial))
        self._shipper = asyncio.get_running_loop().create_task(
            WalShipper(self._hub, self._slot, self).run()
        )

    def connection_lost(self, exc: Exception | None) -> None:
        super().connection_lost(exc)
        self._listener.links.discard(self)
        if self._shipper is not None:
            self._shipper.cancel()
        if self._slot is not None:
            self._hub.unregister(self._slot)


class ReplicationListener:
    """TCP acceptor for follower links on the primary."""

    def __init__(
        self,
        hub: ReplicationHub,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.hub = hub
        self._host = host
        self._port = port
        self._server: asyncio.AbstractServer | None = None
        #: The connected followers' links.
        self.links: set[_FollowerConnection] = set()

    async def start(self) -> None:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _FollowerConnection(self), self._host, self._port
        )

    @property
    def port(self) -> int:
        assert self._server is not None
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting, then close every link (what each transport
        holds is flushed for up to a second, then it is aborted)."""
        if self._server is None:
            return
        self._server.close()
        for link in list(self.links):
            link.transport.close()
        for link in list(self.links):
            try:
                await asyncio.wait_for(link.wait_closed(), 1.0)
            except asyncio.TimeoutError:
                link.transport.abort()
                await link.wait_closed()
        await self._server.wait_closed()
        self._server = None
