"""Sessions and the command queue over the single-threaded manager.

**The invariant this module exists to protect:**
:class:`~repro.protocol.scheduler.TransactionManager` is synchronous,
single-threaded, and non-reentrant — every method mutates shared lock,
version, and record state with no internal synchronisation.  The server
therefore funnels *every* manager call through one bounded
:class:`asyncio.Queue` drained by one dispatcher task
(:meth:`CommandDispatcher.run`).  Connection handlers never touch the
manager; they submit :class:`Command` objects and await futures.  Even
the resumption of parked (blocked) requests happens inside the
dispatcher's current iteration, so at no point do two manager calls
interleave.

Blocking semantics: the manager expresses blocking as ``BLOCKED``
step results plus ``unblocked`` lists on later results (lock-queue
drainage).  The dispatcher turns that into *server-side parking*: a
blocked request's command is filed under its transaction in a wait map
and the response is sent only when the step finally completes, fails,
or its deadline passes (``TIMEOUT``).  At most one request may be
parked per transaction (``CONFLICT`` otherwise).

Backpressure: ``submit`` never waits.  A full command queue yields an
immediate ``BUSY`` error — the client backs off — instead of unbounded
buffering inside the server.

Cascading aborts: whenever an abort cascade touches a transaction,
any request parked on it fails with ``ABORTED`` and the owning session
receives an unsolicited ``{"event": "abort", …}`` frame, so a session
learns that *another* session's write or abort invalidated its
transaction without having to poll.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.predicates import Predicate
from ..core.transactions import Spec
from ..errors import ProtocolError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Span, Tracer
from ..protocol.scheduler import (
    Outcome,
    StepResult,
    TransactionManager,
    TxnPhase,
)
from .errors import (
    ConflictingRequest,
    ErrorCode,
    InvalidArgument,
    NotOwner,
    NotPrimary,
    StaleRead,
    UnknownTransaction,
)
from .clock import CLOCK
from .protocol import (
    OPS,
    Request,
    bind,
    error_reply,
    error_response,
    event_frame,
    ok_response,
)

PARKED = object()
"""Sentinel returned by op handlers that parked their command."""

ANSWERED = object()
"""Sentinel returned by op handlers that answered their command
themselves (before running the step's side effects)."""

_STOP = object()
"""Queue sentinel that terminates the dispatcher loop."""

BATCH_SIZE = 32
"""Max commands one dispatch cycle drains (:meth:`CommandDispatcher.run`)."""


@dataclass(slots=True)
class SessionState:
    """One connected client: identity, owned transactions, notifier.

    ``notify`` delivers an unsolicited event frame to the session's
    connection (non-blocking; the transport buffers).  ``owned`` is the
    set of transaction names this session defined — only the owner may
    drive a transaction's lifecycle, and only the owner is notified
    when it is aborted from outside.
    """

    session_id: int
    notify: Callable[[dict[str, Any]], None]
    peer: str = ""
    owned: set[str] = field(default_factory=set)
    closed: bool = False

    @property
    def name(self) -> str:
        return f"s{self.session_id}"


@dataclass(slots=True)
class Command:
    """One submitted request on its way through the dispatcher."""

    session: SessionState
    request_id: int
    op: str
    params: dict[str, Any]
    future: "asyncio.Future[dict[str, Any]]"
    enqueued_at: float
    deadline: float
    #: ``params`` bound against the op table (set on first execution;
    #: a resumed command is not re-validated).
    args: dict[str, Any] | None = None
    parked_on: str | None = None
    blocked_entity: str | None = None
    timer: asyncio.TimerHandle | None = None
    #: Bumped every time the command parks.  Re-park detection: a
    #: stale (command, epoch) snapshot must not resume the command a
    #: second time after a recursive cascade already ran it.
    park_epoch: int = 0
    parked_at: float = 0.0
    #: The request span (opened at dequeue, backdated to enqueue) and
    #: the currently-open park-wait child span, when tracing is on.
    span: Span | None = None
    wait_span: Span | None = None
    #: Sync replication: the commit LSN this command's reply waits on
    #: (the commit is already durable locally when this is set).
    repl_lsn: int | None = None


class CommandDispatcher:
    """Serializes all manager access through one bounded queue."""

    def __init__(
        self,
        manager: TransactionManager,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        queue_size: int = 256,
        request_timeout: float = 5.0,
        clock: Callable[[], float] = CLOCK,
        shard: int | None = None,
        shards_total: int = 1,
    ) -> None:
        self._tm = manager
        #: Shard identity (``None`` = unsharded, today's exact metric
        #: names).  When set, every dispatcher metric is written twice:
        #: once under ``<name>.shard<i>`` and once into the unlabelled
        #: aggregate — counters by double-increment (sums stay exact),
        #: gauges by re-summing the per-shard gauges (no double-count).
        self._shard = shard
        self._shards_total = max(1, shards_total)
        self._registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._queue: "asyncio.Queue[Command | object]" = asyncio.Queue(
            maxsize=max(1, queue_size)
        )
        self._request_timeout = request_timeout
        self._clock = clock
        # txn name -> the one command parked on it.
        self._lock_waiters: dict[str, Command] = {}
        self._commit_waiters: dict[str, Command] = {}
        # txn name -> commit command whose reply awaits follower acks
        # (the commit itself already happened and is durable locally).
        self._repl_waiters: dict[str, Command] = {}
        #: Replication role context (duck-typed; see
        #: :class:`repro.replication.context.ReplicationContext`).
        #: ``None`` means standalone — no role gating, no sync acks.
        self.replication: Any = None
        self._owners: dict[str, SessionState] = {}
        # txn name -> its open lifetime root span (tracing only).
        self._txn_spans: dict[str, Span] = {}
        self._draining = False
        self._stopped = False

    # -- metrics helpers -----------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)
            if self._shard is not None:
                self._registry.counter(
                    f"{name}.shard{self._shard}"
                ).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self._registry is not None:
            self._registry.histogram(name).observe(value)
            if self._shard is not None:
                self._registry.histogram(
                    f"{name}.shard{self._shard}"
                ).observe(value)

    def _gauge_set(self, name: str, value: float) -> None:
        if self._registry is None:
            return
        if self._shard is None:
            self._registry.gauge(name).set(value)
            return
        # Per-shard gauge holds this dispatcher's own value; the
        # unlabelled aggregate is recomputed as the sum over shards so
        # it never double-counts one shard's depth against another's.
        self._registry.gauge(f"{name}.shard{self._shard}").set(value)
        self._registry.gauge(name).set(
            sum(
                self._registry.gauge(f"{name}.shard{index}").value
                for index in range(self._shards_total)
            )
        )

    # -- accessors -----------------------------------------------------------

    @property
    def manager(self) -> TransactionManager:
        return self._tm

    def replace_manager(self, manager: TransactionManager) -> None:
        """Swap the manager (promotion): must run from inside the
        dispatcher's current iteration so no command interleaves with
        the swap.  On a promoting follower nothing can be parked (all
        primary ops were redirected), so no waiter can reference the
        old manager."""
        self._tm = manager

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def parked_count(self) -> int:
        return (
            len(self._lock_waiters)
            + len(self._commit_waiters)
            + len(self._repl_waiters)
        )

    # -- submission ----------------------------------------------------------

    def submit(
        self, session: SessionState, request: Request
    ) -> "asyncio.Future[dict[str, Any]] | dict[str, Any]":
        """Enqueue a request; never blocks.

        Returns the command's future, or an immediate error response
        dict when the request cannot be admitted (``BUSY`` /
        ``SHUTTING_DOWN``).
        """
        if self._draining or self._stopped:
            return error_response(
                request.request_id,
                ErrorCode.SHUTTING_DOWN,
                "server is draining; no new requests admitted",
            )
        command = self._command(
            session, request.request_id, request.op, request.params
        )
        try:
            self._queue.put_nowait(command)
        except asyncio.QueueFull:
            self._count("server.busy")
            return error_response(
                request.request_id,
                ErrorCode.BUSY,
                "command queue full; back off and retry",
                queue_size=self._queue.maxsize,
            )
        self._count("server.requests")
        self._count(f"server.requests.{request.op}")
        self._gauge_set("server.queue.depth", self._queue.qsize())
        return command.future

    async def submit_internal(
        self, session: SessionState, op: str, params: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Server-originated command (session cleanup): waits for queue
        space instead of failing ``BUSY``, and is a no-op mid-drain
        (the drain itself aborts every live transaction)."""
        if self._draining or self._stopped:
            return None
        command = self._command(session, -1, op, params)
        await self._queue.put(command)
        return await command.future

    def _command(
        self,
        session: SessionState,
        request_id: int,
        op: str,
        params: dict[str, Any],
    ) -> Command:
        now = self._clock()
        return Command(
            session=session,
            request_id=request_id,
            op=op,
            params=params,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=now,
            deadline=now + self._request_timeout,
        )

    # -- the dispatcher loop -------------------------------------------------

    async def run(self) -> None:
        """Drain the command queue forever (until :meth:`stop`).

        This coroutine is the **only** code path that calls into the
        transaction manager.

        Commands are drained in *batches*: after the blocking dequeue
        of the first command, whatever else is already queued (up to
        :data:`BATCH_SIZE`) is drained without yielding to the event loop
        and processed in one dispatch cycle.  FIFO order and the
        single-threaded manager invariant are untouched — batching
        only amortises the per-cycle bookkeeping (gauge updates, clock
        reads).
        """
        stop = False
        while not stop:
            batch: list[Command] = []
            item = await self._queue.get()
            while True:
                if item is _STOP:
                    stop = True
                    break
                assert isinstance(item, Command)
                batch.append(item)
                if len(batch) >= BATCH_SIZE:
                    break
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            if not batch:
                break
            self._gauge_set("server.queue.depth", self._queue.qsize())
            self._observe("server.batch.size", len(batch))
            now = self._clock()
            for command in batch:
                self._observe(
                    "server.queue.wait", now - command.enqueued_at
                )
                if command.future.cancelled():
                    continue
                if self._tracer.enabled:
                    self._open_request_span(command, now)
                if now > command.deadline:
                    self._resolve(
                        command,
                        error_response(
                            command.request_id,
                            ErrorCode.TIMEOUT,
                            "request timed out in the command queue",
                        ),
                    )
                    continue
                self._run_command(command)
        self._stopped = True
        # The _STOP sentinel was still queued when the last command was
        # dequeued, so the gauge may read 1; reset it to the true
        # leftover depth so a drained server reports 0.
        self._gauge_set("server.queue.depth", self._queue.qsize())

    def _open_request_span(self, command: Command, now: float) -> None:
        """Open the per-request span as the command starts executing.

        The span is opened at *dequeue* (not submit) so a pipelined
        client's queued same-transaction requests do not nest under
        each other, then backdated to the enqueue time so it covers
        queue wait; the wait itself is also recorded as an explicit
        ``queue.wait`` child with the same interval.
        """
        txn = command.params.get("txn")
        if not isinstance(txn, str) or not txn:
            # define / ping / hello / stats: no transaction yet.  The
            # pseudo name is unique per request; _op_define aliases it
            # onto the real transaction once that exists.
            txn = f"{command.session.name}.r{command.request_id}"
        span = self._tracer.start(
            "request",
            txn,
            op=command.op,
            session=command.session.name,
            request_id=command.request_id,
        )
        if span is not None:
            span.start = command.enqueued_at
            command.span = span
            self._tracer.record(
                "queue.wait",
                txn,
                start=command.enqueued_at,
                end=now,
                parent=span,
            )

    async def stop(self) -> None:
        """Terminate :meth:`run` after the already-queued commands."""
        self._draining = True
        await self._queue.put(_STOP)

    async def drain(self, grace: float = 2.0) -> dict[str, Any]:
        """Graceful shutdown: stop admitting, finish, abort leftovers.

        1. flips to draining (new submits get ``SHUTTING_DOWN``);
        2. waits up to ``grace`` seconds for the queue and the parked
           requests to empty naturally — but stops waiting as soon as
           only *commit-stability* parks remain: their reads-from
           authors are owned by sessions that can no longer submit, so
           more waiting cannot resolve them;
        3. replies ``SHUTTING_DOWN`` (indeterminate, commit durable
           locally) to commits awaiting a replication ack, and plain
           ``SHUTTING_DOWN`` to lock waiters whose operation never
           executed;
        4. aborts every live top-level transaction — in two passes:
           transactions *without* a parked commit first, so their
           cascades resolve the parked commits honestly through
           ``_after_abort`` (``ABORTED`` when the cascade killed the
           waiter, ``committed`` when its reads-from author's
           termination unblocked it), then whatever is left;
        5. backstop: a commit still parked after both passes is failed
           with an *indeterminate* ``SHUTTING_DOWN`` — never a lost
           future.

        Returns a summary of what the drain had to clean up forcibly.
        """
        self._draining = True
        deadline = self._clock() + grace
        while self._clock() < deadline:
            if not (
                self._queue.qsize()
                or self._lock_waiters
                or self._repl_waiters
            ):
                # Only commit-stability parks (if anything) remain;
                # they resolve via the abort passes below, not by
                # waiting out the grace period.
                break
            await asyncio.sleep(0.02)
        # Commits awaiting acks *happened* and are durable locally;
        # mark the reply indeterminate rather than implying a loss.
        parked_failed = self._fail_parked(
            self._repl_waiters,
            "server shut down before the replication ack; "
            "the commit is durable locally",
            indeterminate=True,
        ) + self._fail_parked(
            self._lock_waiters,
            "server shut down while the request was parked",
        )
        aborted: list[str] = []
        root = self._tm.root
        for skip_commit_parked in (True, False):
            for child in self._tm.children_of(root):
                if skip_commit_parked and child in self._commit_waiters:
                    continue
                if self._tm.record(child).terminated:
                    continue
                cascade = self._tm.abort(child, reason="server shutdown")
                aborted.extend(cascade)
                self._after_abort(cascade)
        parked_failed += self._fail_parked(
            self._commit_waiters,
            "server shut down while the commit was parked; "
            "its outcome was not decided",
            indeterminate=True,
        )
        return {"parked_failed": parked_failed, "aborted": aborted}

    def _fail_parked(
        self, store: dict[str, Command], message: str, **details: Any
    ) -> int:
        """Answer everything parked in ``store`` ``SHUTTING_DOWN``."""
        commands = list(store.values())
        for command in commands:
            lsn = command.repl_lsn
            self._unpark(command)
            if lsn is not None:
                self._count("server.repl.indeterminate")
                details["commit_lsn"] = lsn
            self._resolve(
                command,
                error_response(
                    command.request_id,
                    ErrorCode.SHUTTING_DOWN,
                    message,
                    **details,
                ),
            )
        return len(commands)

    # -- command execution ---------------------------------------------------

    def _run_command(self, command: Command) -> None:
        if command.future.done():
            # Already answered (parked deadline expired, abort cascade,
            # drain).  A command whose reply went out must never touch
            # the manager again — running it would mutate state the
            # client was told nothing happened to.
            return
        try:
            result = self._execute(command)
        except Exception as error:  # noqa: BLE001 — fault barrier
            result = error_reply(command.request_id, error)
        if result is PARKED or result is ANSWERED:
            return
        self._resolve(command, result)

    def _resolve(self, command: Command, response: dict[str, Any]) -> None:
        if command.timer is not None:
            command.timer.cancel()
            command.timer = None
        if not command.future.done():
            command.future.set_result(response)
        self._observe(
            "server.request.latency",
            self._clock() - command.enqueued_at,
        )
        error_code: str | None = None
        if response.get("ok") is False:
            error_code = response.get("error", {}).get("code", "INTERNAL")
            self._count(f"server.errors.{error_code}")
        if command.span is not None:
            if command.wait_span is not None:
                self._tracer.end(command.wait_span)
                command.wait_span = None
            if error_code is None:
                self._tracer.end(command.span, ok=True)
            else:
                self._tracer.end(command.span, ok=False, error=error_code)

    def _execute(self, command: Command) -> dict[str, Any] | object:
        op = command.op
        spec = OPS.get(op)
        if command.args is None:
            repl = self.replication
            if (
                spec is not None
                and spec.primary
                and repl is not None
                and repl.is_follower
            ):
                raise NotPrimary(
                    f"{op!r} requires the primary; this node is a follower",
                    details={
                        "host": repl.primary_host,
                        "port": repl.primary_port,
                    },
                )
            command.args = bind(op, command.params)
        if spec.txn_scoped:
            self._authorise(command.session, command.args["txn"])
        return getattr(self, "_op_" + op)(command, **command.args)

    def _authorise(
        self, session: SessionState, name: str, what: str = "transaction"
    ) -> None:
        """Only the session that defined a transaction may drive it."""
        try:
            self._tm.record(name)
        except ProtocolError:
            raise UnknownTransaction(f"unknown {what} {name!r}") from None
        if name not in session.owned:
            raise NotOwner(f"{what} {name} belongs to another session")

    # -- operations ----------------------------------------------------------

    def _op_ping(self, command: Command) -> dict[str, Any]:
        return ok_response(command.request_id, pong=True)

    def _op_hello(self, command: Command) -> dict[str, Any]:
        return ok_response(
            command.request_id,
            server="repro",
            protocol=1,
            session=command.session.name,
            root=self._tm.root,
            entities=sorted(self._tm.database.schema.names),
            constraint=str(self._tm.database.constraint),
        )

    def _op_stats(self, command: Command) -> dict[str, Any]:
        snapshot = (
            self._registry.snapshot() if self._registry is not None else {}
        )
        extra: dict[str, Any] = {}
        open_spans = getattr(self._tracer, "open_spans", None)
        if callable(open_spans):
            # Live view: the oldest open spans are the slowest
            # in-flight work (the lifetime `txn.server` span of every
            # live transaction is always among them).
            now = self._clock()
            extra["live"] = [
                {
                    "txn": span.txn,
                    "kind": span.kind,
                    "op": span.attrs.get("op"),
                    "age": now - span.start,
                }
                for span in open_spans()[:32]
            ]
        if self.replication is not None:
            extra["repl"] = self.replication.status()
        return ok_response(
            command.request_id,
            stats=snapshot,
            queue_depth=self._queue.qsize(),
            parked=self.parked_count,
            **extra,
        )

    def _op_define(
        self,
        command: Command,
        updates: list[str],
        input: Predicate,
        output: Predicate,
        parent: str | None,
        predecessors: list[str],
    ) -> dict[str, Any]:
        parent = parent or self._tm.root
        if parent != self._tm.root:
            # Nesting below a session's own transactions is allowed;
            # nesting below someone else's tree is not.
            self._authorise(command.session, parent, "parent")
        # Cross-session cooperation edges: predecessors may be owned by
        # any session.  Aborted or vanished predecessors are dropped —
        # they can never commit, so the ordering obligation is vacuous
        # (mirrors the scheduler adapter).
        live_predecessors = []
        for predecessor in predecessors:
            try:
                record = self._tm.record(predecessor)
            except ProtocolError:
                continue
            if record.phase is not TxnPhase.ABORTED:
                live_predecessors.append(predecessor)
        name = self._tm.define(
            parent,
            Spec(input, output),
            updates,
            predecessors=live_predecessors,
        )
        command.session.owned.add(name)
        self._owners[name] = command.session
        self._count("server.txns.defined")
        if self._tracer.enabled and command.span is not None:
            # Root the transaction's span tree: a lifetime span opened
            # before the alias (so it has no parent), then the define
            # request — traced under its pseudo name until now — is
            # folded in and reparented under the new root.
            root = self._tracer.start(
                "txn.server", name, session=command.session.name
            )
            if root is not None:
                self._txn_spans[name] = root
                self._tracer.alias(command.span.txn, name)
                self._tracer.reparent(command.span, root)
        return ok_response(command.request_id, txn=name)

    def _op_validate(
        self, command: Command, txn: str
    ) -> dict[str, Any] | object:
        step = self._tm.validate(txn)
        if step.outcome is Outcome.BLOCKED:
            return self._park(
                command, txn, self._lock_waiters, step.blocked_on
            )
        self._handle_side_effects(step)
        if step.outcome is Outcome.FAILED:
            # A failed validation aborts the transaction inside the
            # scheduler but reports only the *other* cascade victims,
            # so close its lifetime span here (the cascade loop in
            # _after_abort never sees it).
            self._end_txn_span(txn, outcome="aborted", reason=step.reason)
            return ok_response(
                command.request_id,
                outcome="failed",
                reason=step.reason,
                aborted=step.aborted,
            )
        assigned = {
            item: str(version)
            for item, version in sorted(
                self._tm.assigned_versions(txn).items()
            )
        }
        return ok_response(
            command.request_id, outcome="ok", assigned=assigned
        )

    def _op_read(
        self, command: Command, txn: str, entity: str
    ) -> dict[str, Any] | object:
        step = self._tm.read(txn, entity)
        if step.outcome is Outcome.BLOCKED:
            return self._park(
                command, txn, self._lock_waiters, step.blocked_on
            )
        self._handle_side_effects(step)
        return ok_response(command.request_id, value=step.value)

    def _op_begin_write(
        self, command: Command, txn: str, entity: str
    ) -> dict[str, Any] | object:
        step = self._tm.begin_write(txn, entity)
        if step.outcome is Outcome.BLOCKED:
            # Strict mode: an uncommitted version of the entity exists.
            return self._park(
                command, txn, self._lock_waiters, step.blocked_on
            )
        self._handle_side_effects(step)
        return ok_response(command.request_id)

    def _op_end_write(
        self, command: Command, txn: str, entity: str, value: int
    ) -> dict[str, Any]:
        step = self._tm.end_write(txn, entity, value)
        self._handle_side_effects(step)
        return ok_response(
            command.request_id,
            aborted=step.aborted,
            reassigned=step.reassigned,
        )

    def _op_write(
        self, command: Command, txn: str, entity: str, value: int
    ) -> dict[str, Any] | object:
        begin = self._tm.begin_write(txn, entity)
        if begin.outcome is Outcome.BLOCKED:
            # Strict mode: re-run the whole write once unblocked
            # (begin_write did not register anything while blocked).
            return self._park(
                command, txn, self._lock_waiters, begin.blocked_on
            )
        return self._op_end_write(command, txn, entity, value)

    def _commit_gate(self, command: Command, txn: str) -> object | None:
        """The gate ``commit`` and ``prepare`` share: the reply (or
        ``PARKED``) while ``txn`` may not commit yet, else ``None``.

        Beyond ``can_commit`` (parking on unresolved predecessors) this
        is the commit-stability gate: a commit acknowledgement promises
        durability, but recovery cascade-aborts committed readers of
        versions whose authors were in flight at the crash.  Park until
        every reads-from author has terminated — then, by induction and
        WAL append order, the whole dependency chain is on disk before
        this commit record (and a coordinator's later decision about a
        prepared branch is safe to replay).  If the author aborts
        instead, the live cascade fails this command (ABORTED); a
        reads-from cycle parks both sides until the deadline (TIMEOUT).
        Strict mode never exposes uncommitted versions, so the gate is
        vacuous there.
        """
        ok, reason = self._tm.can_commit(txn)
        if not ok and "predecessor" not in reason:
            return ok_response(
                command.request_id, outcome="failed", reason=reason
            )
        if not ok or self._tm.unstable_reads_from(txn) is not None:
            return self._park(command, txn, self._commit_waiters)
        return None

    def _op_commit(
        self, command: Command, txn: str
    ) -> dict[str, Any] | object:
        gated = self._commit_gate(command, txn)
        if gated is not None:
            return gated
        step = self._tm.commit(txn)
        self._count("server.txns.committed")
        self._end_txn_span(txn, outcome="committed")
        # Answer (or repl-park) this commit before its side effects
        # release the commits parked behind it: their replies, and
        # their places in the replication-ack queue, come after this
        # one, so acks follow WAL commit order.
        reply = self._commit_reply(command, txn)
        if reply is not PARKED:
            self._resolve(command, reply)
        self._handle_side_effects(step)
        if self._tm.strict:
            # A commit makes the committer's versions strict-visible;
            # the manager has no lock-queue grant to report for that,
            # so re-run every parked waiter (they re-park if still
            # blocked, keeping their original deadline).
            self._resume_all_lock_waiters()
        return ANSWERED

    def _commit_reply(
        self, command: Command, txn: str
    ) -> dict[str, Any] | object:
        """The reply to the commit of ``txn``, or ``PARKED`` until
        enough followers ack it."""
        # The commit LSN doubles as the client's read-your-writes
        # session token: a later ``follower_read`` passing it as
        # ``min_applied_lsn`` is guaranteed to observe this commit.
        lsn = self._tm.commit_lsn_of(txn)
        extra: dict[str, Any] = {}
        if lsn is not None:
            extra["commit_lsn"] = lsn
        repl = self.replication
        if repl is not None and repl.wants_sync_ack():
            if lsn is not None and repl.hub.replicated_lsn < lsn:
                # Committed and durable locally; the reply waits until
                # enough followers have fsynced past the commit LSN.
                return self._park(
                    command, txn, self._repl_waiters, lsn=lsn
                )
            extra["replicated_lsn"] = repl.hub.replicated_lsn
        return ok_response(command.request_id, outcome="committed", **extra)

    def _op_prepare(
        self,
        command: Command,
        txn: str,
        gid: str,
        participants: dict[str, str],
        coordinator: int,
    ) -> dict[str, Any] | object:
        """2PC phase 1: promise to commit this branch if told to —
        after the full commit gate, *before* logging the durable
        PREPARE."""
        gated = self._commit_gate(command, txn)
        if gated is not None:
            return gated
        lsn = self._tm.prepare(
            txn,
            {
                "gid": gid,
                "participants": dict(participants),
                "coordinator": coordinator,
            },
        )
        self._count("server.txns.prepared")
        extra: dict[str, Any] = {}
        if lsn is not None:
            extra["prepare_lsn"] = lsn
        return ok_response(
            command.request_id, outcome="prepared", **extra
        )

    def _op_abort(
        self, command: Command, txn: str, reason: str | None
    ) -> dict[str, Any]:
        cascade = self._tm.abort(txn, reason=reason or "client requested")
        self._count("server.txns.aborted")
        # The requester learns its own abort from the response; only
        # cascade victims are notified.
        self._after_abort(cascade, notify_exclude={txn})
        return ok_response(
            command.request_id,
            outcome="aborted",
            cascade=[other for other in cascade if other != txn],
        )

    def _op_view(self, command: Command, txn: str) -> dict[str, Any]:
        return ok_response(command.request_id, view=self._tm.view(txn))

    # -- replication operations ----------------------------------------------

    def _op_follower_read(
        self,
        command: Command,
        entity: str | None,
        max_lag_lsn: int | None,
        min_applied_lsn: int | None,
    ) -> dict[str, Any]:
        """A bounded-stale read of the committed root view.

        On a follower the view is the replayed state at ``applied_lsn``
        — a committed prefix of the primary's history, i.e. exactly the
        kind of older-version read the paper's version functions make
        first-class.  ``max_lag_lsn`` / ``min_applied_lsn`` bound the
        staleness; an unsatisfiable bound fails with ``FOLLOWER_READ``
        so the client can retry or go to the primary.
        """
        repl = self.replication
        if repl is not None and repl.is_follower:
            applier = repl.applier
            if applier is None or applier.state is None:
                raise StaleRead(
                    "follower has no replicated state yet",
                    details={"applied_lsn": 0, "lag_lsn": 0},
                )
            applied_lsn, view = applier.read_view()
            lag_lsn = applier.lag_lsn
            lag_ms = round(applier.lag_ms, 3)
            role = "follower"
        else:
            # Primary (or standalone): the committed view, zero lag.
            view = self._tm.view(self._tm.root)
            wal = self._tm.wal
            applied_lsn = wal.last_lsn if wal is not None else 0
            lag_lsn = 0
            lag_ms = 0.0
            role = "primary"
        position = {"applied_lsn": applied_lsn, "lag_lsn": lag_lsn}
        if max_lag_lsn is not None and lag_lsn > max_lag_lsn:
            raise StaleRead(
                f"replication lag {lag_lsn} exceeds bound {max_lag_lsn}",
                details=position,
            )
        if min_applied_lsn is not None and applied_lsn < min_applied_lsn:
            raise StaleRead(
                f"applied_lsn {applied_lsn} is behind required "
                f"{min_applied_lsn} (read-your-writes bound)",
                details=position,
            )
        payload: dict[str, Any] = {**position, "lag_ms": lag_ms, "role": role}
        if entity is None:
            payload["view"] = dict(sorted(view.items()))
        elif entity in view:
            payload["value"] = view[entity]
        else:
            raise InvalidArgument(f"unknown entity {entity!r}")
        self._count("server.follower_reads")
        return ok_response(command.request_id, **payload)

    def _op_repl_status(self, command: Command) -> dict[str, Any]:
        repl = self.replication
        status = (
            repl.status() if repl is not None else {"role": "standalone"}
        )
        return ok_response(command.request_id, **status)

    def _op_promote(
        self, command: Command, listen_port: int | None
    ) -> dict[str, Any]:
        """Promote this follower to primary, in place.

        Runs synchronously inside the dispatcher iteration: no other
        command can interleave with the manager swap, so the promotion
        is atomic from every session's point of view.
        """
        repl = self.replication
        if repl is None or not repl.is_follower:
            raise InvalidArgument(
                "promote: this node is not a follower"
            )
        if repl.promote is None:
            raise InvalidArgument(
                "promote: this follower cannot be promoted"
            )
        report = repl.promote(listen_port=listen_port)
        self._count("server.promotions")
        return ok_response(command.request_id, **report)

    # -- parking & side effects ----------------------------------------------

    def _park(
        self,
        command: Command,
        txn: str,
        store: dict[str, Command],
        entity: str | None = None,
        lsn: int | None = None,
    ) -> object:
        """File ``command`` under ``txn`` until resumed or expired.

        ``store`` says what it waits for: a lock grant on ``entity``,
        commit ripeness, or — the commit already done and durable
        locally — follower acks covering ``lsn``.
        """
        if store is self._repl_waiters:
            attrs: dict[str, Any] = {"on": "replication", "lsn": lsn}
        elif txn in self._lock_waiters or txn in self._commit_waiters:
            raise ConflictingRequest(
                f"another request is already parked on {txn}"
            )
        else:
            on = "commit" if store is self._commit_waiters else "lock"
            attrs = {"entity": entity, "on": on}
        command.parked_on = txn
        command.blocked_entity = entity
        command.repl_lsn = lsn
        command.park_epoch += 1
        command.parked_at = self._clock()
        store[txn] = command
        self._count("server.parked")
        self._gauge_set("server.park.depth", self.parked_count)
        if self._tracer.enabled and command.span is not None:
            command.wait_span = self._tracer.start(
                "park.wait", txn, parent=command.span, **attrs
            )
        remaining = command.deadline - self._clock()
        if remaining <= 0:
            self._expire(command)
        else:
            command.timer = asyncio.get_running_loop().call_later(
                remaining, self._expire, command
            )
        return PARKED

    def _expire(self, command: Command) -> None:
        """Deadline callback for a parked command.

        A lock or commit waiter's underlying request stays queued with
        the manager (the protocol tolerates that — a later grant just
        means the lock is held); the *client* is released with
        ``TIMEOUT`` and should abort or retry.  A replication-ack
        waiter's outcome is *indeterminate*: the commit happened and is
        durable on this node, only the replication guarantee is unmet.
        The client is told exactly that — ``TIMEOUT`` with
        ``indeterminate: true`` — so it must not assume the commit was
        lost (after a failover it may well survive).
        """
        txn, lsn = command.parked_on, command.repl_lsn
        if txn is None:
            return
        self._unpark(command)
        self._count("server.timeouts")
        if lsn is not None:
            self._count("server.repl.indeterminate")
            response = error_response(
                command.request_id,
                ErrorCode.TIMEOUT,
                f"commit of {txn} is durable locally but the "
                "replication ack did not arrive in time",
                indeterminate=True,
                commit_lsn=lsn,
            )
        else:
            what = (
                f"write on {command.blocked_entity}"
                if command.blocked_entity
                else "partial-order predecessors"
            )
            response = error_response(
                command.request_id,
                ErrorCode.TIMEOUT,
                f"{command.op} timed out waiting on {what}",
            )
        self._resolve(command, response)

    def on_replicated(self, lsn: int) -> None:
        """Hub callback: follower acks cover everything up to ``lsn``."""
        for txn, command in list(self._repl_waiters.items()):
            if self._repl_waiters.get(txn) is not command:
                continue
            if command.repl_lsn is not None and command.repl_lsn <= lsn:
                self._unpark(command)
                self._resolve(
                    command,
                    ok_response(
                        command.request_id,
                        outcome="committed",
                        replicated_lsn=lsn,
                        commit_lsn=command.repl_lsn,
                    ),
                )

    def _unpark(self, command: Command) -> None:
        if command.parked_on is None:
            return
        self._lock_waiters.pop(command.parked_on, None)
        self._commit_waiters.pop(command.parked_on, None)
        self._repl_waiters.pop(command.parked_on, None)
        command.parked_on = None
        if command.timer is not None:
            command.timer.cancel()
            command.timer = None
        self._gauge_set("server.park.depth", self.parked_count)
        self._observe(
            "server.park.wait", self._clock() - command.parked_at
        )
        if command.wait_span is not None:
            self._tracer.end(command.wait_span)
            command.wait_span = None

    def _handle_side_effects(self, step: StepResult) -> None:
        """Propagate one step's aborted/unblocked lists to parked
        commands and owning sessions (runs inside the dispatcher
        iteration — the single-threaded invariant holds)."""
        if step.aborted:
            self._after_abort(step.aborted)
            return  # _after_abort already resumes waiters + ripeness
        for name in step.unblocked:
            command = self._lock_waiters.get(name)
            if command is not None:
                self._unpark(command)
                self._run_command(command)
        self._check_commit_waiters()

    def _end_txn_span(self, name: str, **attrs: Any) -> None:
        span = self._txn_spans.pop(name, None)
        if span is not None:
            self._tracer.end(span, **attrs)

    def _after_abort(
        self,
        cascade: list[str],
        notify_exclude: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        if cascade:
            self._observe("server.abort.cascade", len(cascade))
        for name in cascade:
            self._end_txn_span(name, outcome="aborted")
            for store in (
                self._lock_waiters,
                self._commit_waiters,
                self._repl_waiters,
            ):
                command = store.get(name)
                if command is None:
                    continue
                self._unpark(command)
                self._resolve(
                    command,
                    error_response(
                        command.request_id,
                        ErrorCode.ABORTED,
                        f"transaction {name} aborted: "
                        f"{self._abort_reason(name)}",
                    ),
                )
            session = self._owners.get(name)
            if (
                session is not None
                and not session.closed
                and name not in notify_exclude
            ):
                session.notify(
                    event_frame(
                        "abort",
                        txn=name,
                        reason=self._abort_reason(name),
                    )
                )
                self._count("server.notifications")
        # An abort releases W locks and expunges versions, which can
        # unblock any parked reader — the manager does not report those
        # grants, so re-run every lock waiter (they re-park if still
        # blocked, keeping their original deadline).
        self._resume_all_lock_waiters()
        self._check_commit_waiters()

    def _abort_reason(self, name: str) -> str:
        # The record carries its abort reason; the previous backwards
        # scan of the whole event log was O(events) per cascade victim.
        try:
            record = self._tm.record(name)
        except ProtocolError:
            return "aborted"
        return record.abort_reason or "aborted"

    def _resume_all_lock_waiters(self) -> None:
        """Re-run every lock-parked command — each at most once.

        Running a resumed command can recurse back here (its step may
        abort other transactions, and ``_after_abort`` resumes waiters
        again), so a naive iteration over a snapshot double-executes
        commands the recursion already ran: the second ``_run_command``
        re-issues the manager call — a duplicate write/validate — after
        the client already got its one reply.  Found by the fuzzer's
        write-multiplicity oracle.  Each snapshot entry is therefore
        revalidated against the live wait map and the command's park
        epoch: an entry that was resumed (gone), resumed-and-reparked
        (epoch moved on), or answered (future done) is skipped.
        """
        snapshot = [
            (txn, command, command.park_epoch)
            for txn, command in self._lock_waiters.items()
        ]
        for txn, command, epoch in snapshot:
            if self._lock_waiters.get(txn) is not command:
                continue  # a recursive resume already handled it
            if command.park_epoch != epoch or command.future.done():
                continue
            self._unpark(command)
            self._run_command(command)

    def _check_commit_waiters(self) -> None:
        """Resume commit-parked commands whose predecessors resolved."""
        for name, command in list(self._commit_waiters.items()):
            if name not in self._commit_waiters:
                continue  # resolved by a recursive resume
            ok, reason = self._tm.can_commit(name)
            if ok or "predecessor" not in (reason or ""):
                self._unpark(command)
                self._run_command(command)

    # -- session lifecycle ---------------------------------------------------

    async def close_session(self, session: SessionState) -> None:
        """Tear down a disconnected session: abort its live work.

        Aborts cascade through the manager as usual, so transactions in
        *other* sessions that read this session's versions are aborted
        and notified — the "killed client mid-transaction" path.
        """
        session.closed = True
        for name in sorted(session.owned):
            # (an earlier abort's cascade may already have got it)
            if not self._tm.record(name).terminated:
                await self.submit_internal(
                    session,
                    "abort",
                    {"txn": name, "reason": "session disconnected"},
                )
