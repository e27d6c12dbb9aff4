"""The asyncio JSON-lines TCP transaction server.

:class:`TransactionServer` binds the wire protocol
(:mod:`repro.server.protocol`) to the command dispatcher
(:mod:`repro.server.session`): each connection is one
:class:`~repro.framing.LineProtocol` whose read callback submits every
frame it completes, replies and unsolicited events are written straight
to its transport, and exactly one dispatcher task touches the
transaction manager.

Robustness properties (exercised by ``tests/server/test_faults.py``):

* **malformed frames** are answered with a ``MALFORMED`` error and
  counted; after :data:`MAX_MALFORMED` bad frames the connection is
  closed (an oversized frame closes it once the frame's end is read —
  the stream cannot be trusted after it);
* **per-session idle timeout** — a connection that sends nothing for
  ``session_timeout`` seconds is torn down like a disconnect, even if
  its peer has stopped reading;
* **per-request timeout** — enforced by the dispatcher whether the
  command is still queued or parked on a blocked protocol step;
* **backpressure** — a full command queue answers ``BUSY`` instantly;
  a peer that stops reading loses frames (counted) once its transport
  holds :data:`SEND_BUFFER_LIMIT` bytes (never blocks the dispatcher);
* **disconnect cleanup** — a dropped connection's live transactions
  are aborted through the command queue; resulting cascades notify the
  surviving sessions that own affected transactions;
* **graceful drain** — :meth:`shutdown` stops accepting, lets queued
  work finish, aborts leftovers, sends every session a ``shutdown``
  event, and closes.

:class:`ServerThread` runs the whole stack on a background thread for
synchronous callers (the sync client's tests, benchmarks).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover — typing only
    from ..durability.recovery import RecoveryResult

from ..durability import (
    DurableTransactionManager,
    resolve_in_doubt,
    shard_wal_dir,
)
from ..framing import LineProtocol
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..protocol.scheduler import TransactionManager
from ..replication import (
    ROLE_FOLLOWER,
    ROLE_PRIMARY,
    FollowerApplier,
    FollowerLink,
    ReplicationContext,
    ReplicationHub,
    ReplicationListener,
    promote_in_place,
)
from ..storage.database import Database
from .clock import CLOCK
from .errors import ErrorCode, MalformedFrame
from .metrics_http import MetricsHTTPServer
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    error_response,
    event_frame,
    parse_request,
)
from .router import ShardRouter
from .session import CommandDispatcher, SessionState

#: Unsent bytes past which frames to a connection are dropped: more than
#: any client pipelines, so a transport this full has a stalled reader.
SEND_BUFFER_LIMIT = 16 * MAX_FRAME_BYTES
#: Malformed frames one connection may send before it is closed.
MAX_MALFORMED = 8
#: Samples each histogram of a registry the server builds itself keeps:
#: percentiles describe the most recent window, while count, total and
#: max stay exact, so an arbitrarily long uptime holds bounded metrics.
HISTOGRAM_WINDOW = 8192


def parse_hostport(text: str) -> "tuple[str, int]":
    """Parse ``host:port`` (host defaults to 127.0.0.1 if omitted)."""
    host, _, port_text = text.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad address {text!r}: expected host:port"
        ) from None
    return (host or "127.0.0.1", port)


async def _cancelled(task: "asyncio.Task | None") -> None:
    """Cancel a background task and wait until it is gone."""
    if task is not None:
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass


@dataclass(frozen=True)
class ServerConfig:
    """Tunables; the defaults suit tests and local load generation.

    Setting ``wal_dir`` turns on durability: the server recovers the
    directory (or initializes it) through
    :class:`~repro.durability.DurableTransactionManager` and refuses to
    start when recovery verification fails.  ``flush_interval`` is the
    group-commit window (``<= 0`` = fsync on every commit);
    ``checkpoint_every`` counts WAL records between checkpoints.
    ``strict`` runs the §5 manager in strict mode (ST histories; reads
    and writes may block until the writer commits).
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the server
    #: ``None`` = no HTTP listener; ``0`` = ephemeral port (read it off
    #: :attr:`TransactionServer.metrics_port` once started).
    metrics_port: int | None = None
    queue_size: int = 256
    request_timeout: float = 5.0
    session_timeout: float = 300.0
    drain_grace: float = 2.0
    wal_dir: str | None = None
    flush_interval: float = 0.005
    checkpoint_every: int = 512
    retain: int = 3
    strict: bool = False
    #: Size-based WAL segment rolling (0 = roll only at checkpoints).
    segment_bytes: int = 0
    #: Primary: port for the replication listener (``None`` = no
    #: replication; ``0`` = ephemeral, read it off ``repl_port``).
    repl_port: int | None = None
    #: Primary: withhold commit replies until this many followers have
    #: fsynced past the commit LSN (0 = async replication).
    sync_replicas: int = 0
    #: Follower: ``host:port`` of the primary's replication listener.
    #: Setting this makes the node a follower — it redirects every
    #: mutating op and serves ``follower_read``s off replicated state.
    follow_of: str | None = None
    #: Partition the entity space across this many independent
    #: single-threaded shard stacks (dispatcher + manager + WAL
    #: directory ``<wal_dir>/shard{i}``) behind a
    #: :class:`~repro.server.router.ShardRouter`.  ``1`` (the default)
    #: runs the classic single-dispatcher stack, byte-compatible with
    #: every earlier WAL.  Mutually exclusive with replication.
    shards: int = 1


class _Connection(LineProtocol):
    """One client connection: its framer, transport and session.

    Every callback goes to the server, which owns the connection table.
    """

    def __init__(self, server: "TransactionServer") -> None:
        super().__init__(MAX_FRAME_BYTES)
        self.server = server
        self.session: SessionState | None = None
        self.last_frame = 0.0  # loop time of the last line read
        self.watchdog: asyncio.TimerHandle | None = None
        self.malformed = 0

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.server._connection_made(self)

    def line_received(self, line: bytes) -> None:
        self.server._line_received(self, line)

    def line_too_long(self) -> None:
        self.server._frame_too_long(self)

    def connection_lost(self, exc: Exception | None) -> None:
        super().connection_lost(exc)
        self.server._connection_lost(self)


class TransactionServer:
    """Serve the §5 transaction lifecycle over JSON-lines TCP."""

    def __init__(
        self,
        database: Database,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        *,
        manager: TransactionManager | None = None,
        shard_managers: "list[TransactionManager] | None" = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        """``manager``, ``shard_managers`` and ``clock`` exist for
        harnesses (the fuzzer) that pre-build manager stacks (e.g. with
        crash points armed) and drive the server on a virtual clock;
        normal servers leave all three unset and the config decides."""
        self._config = config or ServerConfig()
        self._registry = registry or MetricsRegistry(
            default_max_samples=HISTOGRAM_WINDOW
        )
        self.recovery: "RecoveryResult | None" = None
        self.replication: ReplicationContext | None = None
        self._repl_listener: ReplicationListener | None = None
        self._link_task: asyncio.Task | None = None
        self._takeover_server: asyncio.AbstractServer | None = None
        if self._config.shards < 1:
            raise ValueError("shards must be >= 1")
        self._sharded = self._config.shards > 1
        self._tracer = tracer
        #: Per-shard recovery results / in-doubt 2PC resolutions
        #: (sharded durable startup only).
        self.shard_recoveries: "dict[int, RecoveryResult]" = {}
        self.shard_resolutions: list[dict[str, Any]] = []
        if self._sharded:
            if manager is not None:
                raise ValueError(
                    "a pre-built manager is incompatible with shards > 1"
                )
            if self._config.follow_of or self._config.repl_port is not None:
                raise ValueError(
                    "replication (follow_of / repl_port) and sharding "
                    "are mutually exclusive"
                )
            if shard_managers is not None:
                if len(shard_managers) != self._config.shards:
                    raise ValueError(
                        f"shard_managers has {len(shard_managers)} "
                        f"entries for {self._config.shards} shards"
                    )
                managers = list(shard_managers)
            else:
                managers = self._open_shard_managers(database)
        elif shard_managers is not None:
            raise ValueError("shard_managers requires shards > 1")
        elif manager is not None:
            managers = [manager]
        elif self._config.follow_of:
            # Follower: the WAL dir belongs to the applier (replicated
            # history), never to a DurableTransactionManager — the
            # dispatcher gets a plain in-memory manager whose mutating
            # ops are redirected anyway.
            if not self._config.wal_dir:
                raise ValueError(
                    "follow_of requires wal_dir for replicated history"
                )
            managers = [self._open_manager(database, None)[0]]
            host, port = parse_hostport(self._config.follow_of)
            applier = FollowerApplier(
                self._config.wal_dir,
                segment_bytes=self._config.segment_bytes,
                retain=self._config.retain,
                registry=self._registry,
                tracer=tracer,
                clock=clock if clock is not None else CLOCK,
            )
            link = FollowerLink(
                applier,
                host,
                port,
                node=str(self._config.wal_dir),
            )
            self.replication = ReplicationContext(
                ROLE_FOLLOWER,
                applier=applier,
                link=link,
                primary_host=host,
                primary_port=port,
            )
            self.replication.promote = self.promote_now
        else:
            opened, self.recovery = self._open_manager(
                database, self._config.wal_dir
            )
            managers = [opened]
        #: One dispatcher per shard; each holds its manager (a promotion
        #: swaps it there), so nothing else keeps a second reference.
        self._dispatchers = [
            CommandDispatcher(
                shard_manager,
                registry=self._registry,
                tracer=tracer,
                queue_size=self._config.queue_size,
                request_timeout=self._config.request_timeout,
                clock=clock if clock is not None else CLOCK,
                shard=index if self._sharded else None,
                shards_total=self._config.shards,
            )
            for index, shard_manager in enumerate(managers)
        ]
        self._dispatcher: "CommandDispatcher | ShardRouter" = (
            ShardRouter(self._dispatchers, registry=self._registry)
            if self._sharded
            else self._dispatchers[0]
        )
        if (
            self.replication is None
            and self._config.repl_port is not None
        ):
            hub = ReplicationHub(
                managers[0],  # raises unless WAL-backed
                sync_replicas=self._config.sync_replicas,
                registry=self._registry,
                tracer=tracer,
                clock=clock if clock is not None else CLOCK,
            )
            hub.on_replicated = self._dispatcher.on_replicated
            self.replication = ReplicationContext(ROLE_PRIMARY, hub=hub)
        self._dispatcher.replication = self.replication
        self._metrics_http: MetricsHTTPServer | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher_task: asyncio.Task | None = None
        self._flush_task: asyncio.Task | None = None
        self._connections: dict[int, _Connection] = {}
        #: One ``close_session`` Task per disconnected connection, kept
        #: until it finishes (shutdown waits for them).
        self._cleanups: set[asyncio.Task] = set()
        self._session_ids = itertools.count(1)
        self._stopping = False
        self._drain_summary: dict[str, Any] = {}

    def _open_manager(
        self,
        database: Database | None,
        wal_dir: "str | None",
        root_name: str | None = None,
    ) -> "tuple[TransactionManager, RecoveryResult | None]":
        """The one place this server builds a manager from its config:
        in memory without ``wal_dir``, else WAL-backed — recovered, or
        fresh from ``database``; with no ``database`` the directory
        must already hold history (promotion)."""
        options: dict[str, Any] = dict(
            tracer=self._tracer,
            registry=self._registry,
            strict=self._config.strict,
        )
        if not wal_dir:
            manager = TransactionManager(
                database, root_name=root_name, **options
            )
            return manager, None
        options.update(
            flush_interval=self._config.flush_interval,
            checkpoint_every=self._config.checkpoint_every,
            segment_bytes=self._config.segment_bytes,
            retain=self._config.retain,
        )
        if database is None:
            return promote_in_place(wal_dir, **options)
        return DurableTransactionManager.open(
            wal_dir, lambda: database, root_name=root_name, **options
        )

    def _open_shard_managers(
        self, database: Database
    ) -> list[TransactionManager]:
        """One full manager stack per shard.

        Every shard holds the complete schema (partitioning governs
        which shard *writes* an entity, not where it is stored), its
        manager roots the transaction tree at ``sh{index}`` so branch
        names are self-routing, and — when durable — its WAL lives in
        ``<wal_dir>/shard{index}``.  In-doubt 2PC branches from a
        previous crash are resolved against the coordinator shard's
        log *before* any shard recovers (see
        :func:`~repro.durability.shard_recovery.resolve_in_doubt`).
        """
        wal_dir = self._config.wal_dir
        if wal_dir:
            self.shard_resolutions = resolve_in_doubt(wal_dir)
        managers: list[TransactionManager] = []
        for index in range(self._config.shards):
            manager, recovery = self._open_manager(
                Database(
                    database.schema,
                    database.constraint,
                    database.initial_state,
                ),
                shard_wal_dir(wal_dir, index) if wal_dir else None,
                f"sh{index}",
            )
            if recovery is not None:
                self.shard_recoveries[index] = recovery
            managers.append(manager)
        return managers

    # -- accessors -----------------------------------------------------------

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def tracer(self) -> Tracer | None:
        return self._tracer

    @property
    def manager(self) -> TransactionManager:
        return self._dispatchers[0].manager

    @property
    def dispatcher(self) -> CommandDispatcher:
        return self._dispatcher

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def metrics_port(self) -> int | None:
        """Bound port of the HTTP listener (``None`` when disabled)."""
        if self._metrics_http is None:
            return None
        return self._metrics_http.port

    @property
    def repl_port(self) -> int | None:
        """Bound port of the replication listener (``None`` if off)."""
        if self._repl_listener is None:
            return None
        return self._repl_listener.port

    @property
    def address(self) -> tuple[str, int]:
        return (self._config.host, self.port)

    # -- failover ------------------------------------------------------------

    def promote_now(self, listen_port: int | None = None) -> "dict[str, Any]":
        """Promote this follower to primary, in place and synchronously.

        Runs inside a dispatcher iteration (the ``promote`` op), so the
        manager swap is atomic with respect to every other command:
        stop the link, run the stock ``recover --verify`` gate over the
        replicated directory, swap the recovered durable manager into
        the dispatcher, and flip the role.  With ``listen_port`` the
        promoted node additionally binds the dead primary's client
        port (its own listener stays up).
        """
        context = self.replication
        if context is None or not context.is_follower:
            raise RuntimeError("promote_now on a non-follower")
        started = CLOCK()
        if context.link is not None:
            context.link.stop()
        if self._link_task is not None:
            self._link_task.cancel()
            self._link_task = None
        applier = context.applier
        assert applier is not None
        applier.close()
        manager, recovery = self._open_manager(None, self._config.wal_dir)
        self._dispatcher.replace_manager(manager)
        self.recovery = recovery
        new_context = ReplicationContext(ROLE_PRIMARY)
        new_context.promote = self.promote_now
        self.replication = new_context
        self._dispatcher.replication = new_context
        if listen_port is not None:
            asyncio.ensure_future(self._take_over_port(listen_port))
        report = {
            "role": ROLE_PRIMARY,
            "promoted_from_lsn": applier.applied_lsn,
            "promote_ms": round((CLOCK() - started) * 1000.0, 3),
            "recovery": recovery.summary(),
            "committed": sorted(recovery.committed),
            "listen_port": listen_port,
        }
        self._registry.counter("repl.promotions").inc()
        return report

    async def _take_over_port(self, port: int) -> None:
        """Bind the dead primary's client port on the promoted node."""
        loop = asyncio.get_running_loop()
        try:
            self._takeover_server = await loop.create_server(
                lambda: _Connection(self), self._config.host, port
            )
        except OSError:
            self._registry.counter("repl.takeover_failed").inc()

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._dispatcher_task = asyncio.create_task(
            self._dispatcher.run(), name="repro-dispatcher"
        )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self._config.host, self._config.port
        )
        if self._config.metrics_port is not None:
            self._metrics_http = MetricsHTTPServer(
                self._registry,
                host=self._config.host,
                port=self._config.metrics_port,
                dispatcher=self._dispatcher,
                draining=lambda: self._stopping,
                health=(
                    self._health
                    if self.replication is not None
                    else None
                ),
            )
            await self._metrics_http.start()
        if self.replication is not None:
            context = self.replication
            if context.hub is not None:
                self._repl_listener = ReplicationListener(
                    context.hub,
                    host=self._config.host,
                    port=self._config.repl_port or 0,
                )
                await self._repl_listener.start()
            if context.link is not None:
                self._link_task = asyncio.create_task(
                    context.link.run(), name="repro-follower-link"
                )
        if self._config.wal_dir and self._config.flush_interval > 0:
            # Started for followers too: their in-memory manager's
            # ``maybe_flush`` is a no-op, but a promotion swaps in a
            # durable manager that needs group-commit driving.
            self._flush_task = asyncio.create_task(
                self._flush_loop(), name="repro-wal-flush"
            )

    async def _flush_loop(self) -> None:
        """Drive the WAL's group-commit deadline.

        ``maybe_flush`` is synchronous and the event loop is
        single-threaded, so this never interleaves with a dispatcher
        iteration mid-append.  Each dispatcher's manager is re-read
        every tick because promotion replaces it mid-flight.
        """
        interval = max(self._config.flush_interval / 2, 0.001)
        while True:
            await asyncio.sleep(interval)
            for dispatcher in self._dispatchers:
                dispatcher.manager.maybe_flush()

    def _health(self) -> "dict[str, Any]":
        context = self.replication
        if context is None:
            return {"role": "standalone"}
        return context.health()

    async def shutdown(self) -> "dict[str, Any]":
        """Graceful drain: see the module docstring for the order.

        Returns a drain summary — forcibly aborted transactions,
        requests failed while parked, and notifications dropped on
        slow readers over the server's lifetime — so operators see
        what the drain could not finish cleanly.
        """
        if self._stopping:
            return dict(self._drain_summary)
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._metrics_http is not None:
            await self._metrics_http.close()
        if self._takeover_server is not None:
            self._takeover_server.close()
            await self._takeover_server.wait_closed()
        if self.replication is not None and self.replication.link is not None:
            self.replication.link.stop()
        await _cancelled(self._link_task)
        drained = await self._dispatcher.drain(self._config.drain_grace)
        for connection in list(self._connections.values()):
            self._send(connection, event_frame("shutdown"))
            connection.transport.close()  # flushes what it holds
        await self._dispatcher.stop()
        if self._dispatcher_task is not None:
            await self._dispatcher_task
        if self._repl_listener is not None:
            # Only now: followers keep acking while the drain finishes
            # the commits that wait for them.
            await self._repl_listener.close()
        await _cancelled(self._flush_task)
        for dispatcher in self._dispatchers:
            # Durable manager: final checkpoint + flush, clean WAL.
            dispatcher.manager.close()
        if self.replication is not None:
            if self.replication.hub is not None:
                self.replication.hub.close()
            if self.replication.applier is not None:
                self.replication.applier.close()
        for connection in list(self._connections.values()):
            try:
                await asyncio.wait_for(connection.wait_closed(), 1.0)
            except asyncio.TimeoutError:
                connection.transport.abort()
        if self._cleanups:
            # Mid-drain every ``close_session`` returns at once; one
            # still waiting here waits on a dispatcher that is gone.
            await asyncio.wait(list(self._cleanups), timeout=1.0)
            for task in list(self._cleanups):
                await _cancelled(task)
        self._drain_summary = {
            "aborted": list(drained["aborted"]),
            "parked_failed": drained["parked_failed"],
            "notifications_dropped": int(
                self._registry.counter(
                    "server.notifications_dropped"
                ).value
            ),
        }
        return dict(self._drain_summary)

    # -- per-connection plumbing ---------------------------------------------

    def _send(self, connection: _Connection, payload: Any) -> None:
        """Write one frame to the transport; never blocks the caller.

        A peer whose transport holds :data:`SEND_BUFFER_LIMIT` unsent
        bytes loses the frame (counted) rather than stalling the
        dispatcher; a closing transport is skipped.
        """
        transport = connection.transport
        if transport.is_closing():
            return
        if transport.get_write_buffer_size() >= SEND_BUFFER_LIMIT:
            self._registry.counter("server.notifications_dropped").inc()
            return
        transport.write(encode_frame(payload))

    def _watch_idle(self, connection: _Connection) -> None:
        """Close the connection once ``session_timeout`` passes with no
        frame; otherwise re-arm for the time that remains."""
        loop = asyncio.get_running_loop()
        timeout = self._config.session_timeout
        remaining = connection.last_frame + timeout - loop.time()
        if remaining > 0:
            connection.watchdog = loop.call_later(
                remaining, self._watch_idle, connection
            )
        elif not connection.transport.is_closing():
            self._registry.counter("server.idle_closed").inc()
            transport = connection.transport
            transport.close()
            if transport.get_write_buffer_size():
                # close() would hold the connection's loss (and its
                # session's cleanup) back until the buffer drains,
                # which a peer that stopped reading never lets happen.
                transport.abort()

    def _connection_made(self, connection: _Connection) -> None:
        session_id = next(self._session_ids)
        connection.session = SessionState(
            session_id=session_id,
            notify=lambda payload: self._send(connection, payload)
            if session_id in self._connections
            else None,
            peer=str(connection.transport.get_extra_info("peername", "")),
        )
        connection.last_frame = asyncio.get_running_loop().time()
        self._connections[session_id] = connection
        self._watch_idle(connection)
        self._registry.gauge("server.sessions").inc()

    def _line_received(self, connection: _Connection, line: bytes) -> None:
        """One frame, inside the read callback: submit it, or close
        the connection after too many malformed ones."""
        connection.last_frame = asyncio.get_running_loop().time()
        if line.isspace():
            return  # blank keep-alive line
        if not self._handle_frame(connection, line):
            connection.transport.close()

    def _frame_too_long(self, connection: _Connection) -> None:
        # The framer closes the connection after the frame's end.
        self._registry.counter("server.malformed").inc()
        self._send(
            connection,
            error_response(
                None,
                ErrorCode.MALFORMED,
                f"frame exceeds {MAX_FRAME_BYTES} bytes",
            ),
        )

    def _connection_lost(self, connection: _Connection) -> None:
        """EOF, a reset, or a close from this side: release the session
        (its live transactions abort through the command queue)."""
        if connection.watchdog is not None:
            connection.watchdog.cancel()
        self._registry.gauge("server.sessions").dec()
        self._connections.pop(connection.session.session_id, None)
        task = asyncio.get_running_loop().create_task(
            self._dispatcher.close_session(connection.session)
        )
        self._cleanups.add(task)
        task.add_done_callback(self._cleanups.discard)

    def _handle_frame(
        self, connection: _Connection, line: bytes
    ) -> bool:
        """Process one frame; returns False to close the connection."""
        try:
            frame = decode_frame(line)
            request = parse_request(frame)
        except MalformedFrame as error:
            connection.malformed += 1
            self._registry.counter("server.malformed").inc()
            request_id = self._recover_id(line)
            self._send(
                connection,
                error_response(
                    request_id, ErrorCode.MALFORMED, str(error)
                ),
            )
            return connection.malformed < MAX_MALFORMED
        outcome = self._dispatcher.submit(connection.session, request)
        if isinstance(outcome, dict):
            self._send(connection, outcome)
            return True

        def _deliver(future: "asyncio.Future[dict]") -> None:
            if not future.cancelled():
                self._send(connection, future.result())

        outcome.add_done_callback(_deliver)
        return True

    @staticmethod
    def _recover_id(line: bytes) -> int | None:
        """Best-effort request id for a malformed frame's response."""
        try:
            frame = json.loads(line.decode("utf-8", "replace"))
        except json.JSONDecodeError:
            return None
        if not isinstance(frame, dict):
            return None
        request_id = frame.get("id")
        if isinstance(request_id, bool) or not isinstance(
            request_id, int
        ):
            return None
        return request_id if request_id >= 0 else None


class ServerThread:
    """Run a :class:`TransactionServer` on a background event loop.

    For synchronous callers — the sync client, benchmarks, and the CI
    smoke test.  Use as a context manager::

        with ServerThread(lambda: make_database()) as handle:
            client = Client.connect("127.0.0.1", handle.port)
    """

    def __init__(
        self,
        database_factory: Callable[[], Database],
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._database_factory = database_factory
        self._config = config or ServerConfig()
        self._registry = registry
        self._tracer = tracer
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None
        self.port: int | None = None
        self.server: TransactionServer | None = None

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self.server = TransactionServer(
                self._database_factory(),
                config=self._config,
                registry=self._registry,
                tracer=self._tracer,
            )
            await self.server.start()
            self.port = self.server.port
        except BaseException as error:  # noqa: BLE001 — reported to caller
            self._error = error
            self._ready.set()
            return  # start() re-raises; don't also crash the thread
        self._ready.set()
        await self._stop.wait()
        await self.server.shutdown()

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._error is not None:
            raise RuntimeError(
                f"server failed to start: {self._error}"
            ) from self._error
        if self.port is None:
            raise RuntimeError("server did not come up within 10s")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal shutdown and join the loop thread.

        Raises :class:`RuntimeError` when the thread is still alive
        after ``timeout`` — a wedged event loop (a callback stuck in
        blocking code, a drain that cannot finish).  Silently returning
        here used to leave a live daemon thread holding the port and
        the WAL directory behind a caller who believed the server was
        gone.
        """
        if self._thread is None:
            return  # already stopped
        if (
            self._loop is not None
            and self._stop is not None
            and not self._loop.is_closed()
        ):
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                raise RuntimeError(
                    f"server thread did not stop within {timeout:g}s: "
                    "the event loop is wedged (a callback is blocking "
                    "or the drain cannot complete); the daemon thread "
                    "is still running and its port and WAL directory "
                    "remain in use"
                )
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
