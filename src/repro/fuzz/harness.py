"""The deterministic harness: the engine under ``repro fuzz`` and ``repro sim``.

The one executor (:mod:`repro.fuzz.runner`) drives the *real* server
stack — :class:`TransactionServer` wiring, the
:class:`CommandDispatcher` parking/timeout machinery,
:class:`DurableTransactionManager` WALs on disk, and the
:class:`ReplicationHub` / :class:`FollowerApplier` core — on a
:class:`~repro.fuzz.loop.VirtualClockLoop`.  Only the transports are
bypassed: clients are coroutines that submit requests straight to a
dispatcher and await the futures, exactly as a connection handler
would, and WAL shipping drives the hub's ``register`` /
``next_batch`` / ``ack`` core directly.  This module holds exactly one
of each piece:

* :func:`virtual_run` — owns the scratch directory and the virtual
  loop; turns a stalled loop into a deadlock verdict and unwinds
  whatever is still pending;
* :func:`build_stack` — managers + server + replication hub;
* :class:`Follower` / :class:`ReplicaSet` — appliers and their pumps;
* :class:`Transcript` — the event log with its BUSY-retrying
  ``request``;
* :class:`Epoch` — dispatcher + pumps + scripted clients until done or
  crashed, then :meth:`Epoch.collect` turns what is left on disk into
  :class:`Evidence` for the oracles.

A network is a :class:`~repro.des.network.Network` or ``None``; with
``None`` the engine adds **no** suspension point, so the schedule is
exactly the dispatcher's.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..core.entities import Domain, Entity, Schema
from ..core.predicates import Predicate
from ..durability.crashpoints import CrashPoints, SimulatedCrash
from ..durability.harness import build_survivor_copy
from ..durability.manager import DurableTransactionManager
from ..durability.recovery import RecoveryResult, recover
from ..durability.shard_recovery import resolve_in_doubt, shard_wal_dir
from ..durability.wal import scan_wal
from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Span
from ..protocol.scheduler import TransactionManager
from ..replication import (
    ROLE_FOLLOWER,
    ROLE_PRIMARY,
    FollowerApplier,
    ReplicationContext,
    ReplicationHub,
    encode_message,
)
from ..replication.messages import KIND_SNAPSHOT
from ..server.protocol import Request
from ..server.server import ServerConfig, TransactionServer
from ..server.session import SessionState
from ..sim.clock import VirtualClock
from ..storage.database import Database
from ..workload import predicate_text
from ..workload.families import ENTITIES
from .loop import FuzzDeadlockError, VirtualClockLoop
from .plan import ClientPlan, FuzzPlan

#: Codes after which a transaction script is abandoned outright (the
#: transaction is already gone server-side).
_DEAD_CODES = {"ABORTED", "UNKNOWN_TXN", "SHUTTING_DOWN"}

_BUSY_RETRIES = 5
_BUSY_BACKOFF = 0.05

#: Pump poll period (virtual seconds) while idle or partitioned.
_POLL = 0.05

#: Crash-point label of a virtual-time dispatcher kill.
KILL_POINT = "des.primary_kill"


def fuzz_database() -> Database:
    """The fixed fuzz schema: x, y, z in [0, 100], all initially 1."""
    schema = Schema(
        [Entity(name, Domain.interval(0, 100)) for name in ENTITIES]
    )
    constraint = Predicate.parse(predicate_text(ENTITIES))
    return Database(schema, constraint, {name: 1 for name in ENTITIES})


# ---------------------------------------------------------------------------
# Evidence: what the oracles get to look at
# ---------------------------------------------------------------------------


@dataclass
class NodeEvidence:
    """One manager stack's post-run artifacts.

    A sharded run has one node per shard (``index`` = shard number,
    branch names rooted at ``sh{index}``); an unsharded run is a single
    node 0 whose branch names are the client-visible gids themselves.
    """

    index: int
    records: "list[Any] | None" = None
    recovery: "RecoveryResult | None" = None
    #: The live manager — clean runs only (``None`` after a crash or
    #: deadlock, where its state is mid-flight).
    manager: "TransactionManager | None" = None


@dataclass
class Evidence:
    """Everything the oracles get to look at after a run."""

    plan: FuzzPlan
    events: list[dict[str, Any]]
    names: dict[str, str]
    acked_committed: list[str]
    requests: dict[tuple[int, int], dict[str, Any]]
    #: Commits whose reply said "durable locally, replication ack
    #: unknown" (sync-replication timeout or shutdown).  Oracles must
    #: accept these as committed without requiring an ack.
    indeterminate_committed: list[str] = field(default_factory=list)
    nodes: list[NodeEvidence] = field(default_factory=list)
    #: In-doubt 2PC branches recovery decided (``None`` = no recovery).
    resolutions: "list[dict[str, Any]] | None" = None
    recovery_error: "str | None" = None
    #: Per-replica post-run recovery verdicts (``None`` = no replicas).
    replicas: "list[dict[str, Any]] | None" = None
    #: Sampled follower reads:
    #: ``{t, replica, applied_lsn, lag_lsn, lag_ms, view}``.
    follower_samples: "list[dict[str, Any]] | None" = None
    crashed: bool = False
    crash_info: "dict[str, Any] | None" = None
    deadlock: "str | None" = None
    dispatcher: Any = None
    drain_summary: "dict[str, Any] | None" = None
    registry: "MetricsRegistry | None" = None
    spans: "list[Span] | None" = None
    spans_dropped: int = 0
    open_spans: "list[Span] | None" = None
    #: Cross-shard branch name → client-visible gid (sharded runs).
    branch_map: dict[str, str] = field(default_factory=dict)
    #: What a promoted primary inherited: the history recovery found
    #: committed on it, never acked in this epoch (``None`` = the epoch
    #: began on a fresh primary).
    baseline_committed: "list[str] | None" = None

    @property
    def pending_requests(self) -> list[dict[str, Any]]:
        return [
            entry
            for entry in self.requests.values()
            if entry["status"] == "pending"
        ]

    @property
    def unacked_committed(self) -> list[str]:
        """Legitimately committed without an ack in this epoch: the
        inherited baseline, then the indeterminate replies."""
        inherited = self.baseline_committed or []
        return list(inherited) + [
            txn
            for txn in self.indeterminate_committed
            if txn not in inherited
        ]


@dataclass
class History:
    """A whole run for the cluster-scope oracles: each epoch's evidence
    in order, and the modeled network (``None`` = in-process hops)."""

    epochs: list[Evidence]
    network: Any = None


# ---------------------------------------------------------------------------
# The run wrapper: workdir + virtual loop lifetime, deadlock verdict
# ---------------------------------------------------------------------------


def _cancel_pending(loop: asyncio.AbstractEventLoop) -> None:
    """Unwind whatever is still pending on ``loop``."""
    pending = [
        task for task in asyncio.all_tasks(loop) if not task.done()
    ]
    for task in pending:
        task.cancel()
    if pending:
        loop.run_until_complete(
            asyncio.gather(*pending, return_exceptions=True)
        )


class VirtualRun:
    """One harness run's scratch directory and virtual-clock loop."""

    def __init__(self, base: Path, loop: VirtualClockLoop) -> None:
        self.base = base
        self.loop = loop
        self.clock: VirtualClock = loop.virtual_clock
        #: Set when the loop stalled: every task stuck, no timer due.
        self.deadlock: "str | None" = None

    def run(self, coro: Any) -> None:
        """Run ``coro`` to completion — or to a deadlock verdict.

        Pending tasks are cancelled on every way out: a deadlock
        leaves client tasks parked, a sharded crash leaves the
        *surviving* shards' dispatcher loops on their queues, and a
        harness exception must not close the loop under live tasks.
        """
        asyncio.set_event_loop(self.loop)
        try:
            try:
                self.loop.run_until_complete(coro)
            except FuzzDeadlockError as error:
                self.deadlock = str(error)
            finally:
                _cancel_pending(self.loop)
        finally:
            asyncio.set_event_loop(None)


@contextmanager
def virtual_run(
    workdir: "Path | str | None", prefix: str
) -> Iterator[VirtualRun]:
    """Acquire a workdir (a fresh temp dir when ``None``) and a loop.

    Both are released on every exit; callers validate their input
    *before* entering, so a rejected plan acquires nothing.
    """
    base = Path(
        tempfile.mkdtemp(prefix=prefix) if workdir is None else workdir
    )
    try:
        base.mkdir(parents=True, exist_ok=True)
        loop = VirtualClockLoop()
        try:
            yield VirtualRun(base, loop)
        finally:
            loop.close()
    finally:
        if workdir is None:
            shutil.rmtree(base, ignore_errors=True)


# ---------------------------------------------------------------------------
# The stack: managers + server + replication hub
# ---------------------------------------------------------------------------


@dataclass
class Stack:
    """One primary: a manager per node, the server, maybe a hub."""

    managers: "list[TransactionManager]"
    server: TransactionServer
    hub: "ReplicationHub | None"
    registry: MetricsRegistry
    wal_root: Path
    #: Per-node WAL directories (empty for in-memory plans).
    dirs: list[Path]


def build_stack(
    plan: FuzzPlan,
    wal_root: Path,
    clock: VirtualClock,
    registry: MetricsRegistry,
    *,
    tracer: Any = None,
    crash_points: "CrashPoints | None" = None,
    manager: "DurableTransactionManager | None" = None,
) -> Stack:
    """Wire ``plan``'s primary stack over ``wal_root``.

    ``manager`` adopts an already-open manager (a promoted follower)
    instead of opening ``wal_root``.  A plan with replicas gets a
    :class:`ReplicationHub` on node 0, waiting for ``sync_replicas``
    acks.  Sharded plans get one manager per shard rooted at ``sh{i}`` over
    ``wal_root/shard{i}``, all sharing ``crash_points`` so an armed
    point fires wherever the schedule takes it.
    """
    sharded = plan.shards > 1
    roots = (
        [f"sh{index}" for index in range(plan.shards)]
        if sharded
        else [None]
    )
    dirs: list[Path] = []
    if manager is not None:
        managers: "list[Any]" = [manager]
        dirs = [wal_root]
    elif plan.durable:
        dirs = (
            [shard_wal_dir(wal_root, i) for i in range(plan.shards)]
            if sharded
            else [wal_root]
        )
        managers = [
            DurableTransactionManager.open(
                wal_dir,
                fuzz_database,
                flush_interval=plan.flush_interval,
                checkpoint_every=plan.checkpoint_every,
                retain=99,  # keep every segment: oracles read history
                tracer=tracer,
                registry=registry,
                strict=plan.strict,
                crash_points=crash_points,
                root_name=root,
            )[0]
            for wal_dir, root in zip(dirs, roots)
        ]
    else:
        managers = [
            TransactionManager(
                fuzz_database(),
                tracer=tracer,
                registry=registry,
                strict=plan.strict,
                root_name=root,
            )
            for root in roots
        ]
    server = TransactionServer(
        managers[0].database,
        config=ServerConfig(
            queue_size=plan.queue_size,
            request_timeout=plan.request_timeout,
            drain_grace=plan.drain_grace,
            strict=plan.strict,
            shards=plan.shards,
        ),
        registry=registry,
        tracer=tracer,
        manager=None if sharded else managers[0],
        shard_managers=managers if sharded else None,
        clock=clock,
    )
    hub: "ReplicationHub | None" = None
    if plan.replicas:
        # Both hub clocks are the shared virtual clock, so lag stamps
        # are deterministic too.
        hub = ReplicationHub(
            managers[0],
            sync_replicas=plan.sync_replicas,
            registry=registry,
            tracer=tracer,
            clock=clock,
            wall_clock=clock,
        )
        hub.on_replicated = server.dispatcher.on_replicated
        server.dispatcher.replication = ReplicationContext(
            ROLE_PRIMARY, hub=hub
        )
    return Stack(managers, server, hub, registry, wal_root, dirs)


# ---------------------------------------------------------------------------
# Followers and their pumps
# ---------------------------------------------------------------------------


def _noop_notify(payload: dict[str, Any]) -> None:
    return None


class Follower:
    """One follower: applier + ship slot + WAL dir.

    With ``read_config`` the follower also runs a dispatcher serving
    ``follower_read`` off its replicated state.
    """

    def __init__(
        self,
        index: int,
        name: str,
        wal_dir: Path,
        clock: VirtualClock,
        *,
        tracer: Any = None,
        registry: "MetricsRegistry | None" = None,
        read_config: "ServerConfig | None" = None,
    ) -> None:
        self.index = index
        self.name = name
        self.dir = wal_dir
        self.applier = FollowerApplier(
            wal_dir,
            registry=registry,
            tracer=tracer,
            clock=clock,
            wall_clock=clock,
        )
        self.slot: Any = None
        self.server: "TransactionServer | None" = None
        self.serving = read_config is not None
        self._dispatcher_task: "asyncio.Task | None" = None
        if read_config is not None:
            self.server = TransactionServer(
                fuzz_database(),
                config=read_config,
                registry=registry,
                clock=clock,
            )
            context = ReplicationContext(
                ROLE_FOLLOWER,
                applier=self.applier,
                primary_host="sim",
                primary_port=0,
            )
            self.server.replication = context
            self.server.dispatcher.replication = context

    def start(self) -> None:
        """Start the read dispatcher, if any (needs the running loop)."""
        if self.server is not None:
            self._dispatcher_task = asyncio.ensure_future(
                self.server.dispatcher.run()
            )

    async def stop(self) -> None:
        """Drain read traffic and close the applier (idempotent)."""
        if not self.serving:
            return
        self.serving = False
        assert self.server is not None
        await self.server.shutdown()
        if self._dispatcher_task is not None:
            await self._dispatcher_task
            self._dispatcher_task = None

    def apply(self, message: dict[str, Any]) -> None:
        if message["kind"] == KIND_SNAPSHOT:
            self.applier.install_snapshot(
                message["state"], message["last_lsn"]
            )
        else:
            self.applier.apply_records(message)

    def recover_entry(self) -> dict[str, Any]:
        """This directory's ``recover --verify`` verdict.

        The stock gate — exactly what promotion runs — so the
        promotion oracle judges the artifact a real failover trusts.
        """
        entry: dict[str, Any] = {
            "replica": self.index,
            "applied_lsn": self.applier.applied_lsn,
            "snapshots_installed": self.applier.snapshots_installed,
            "records_applied": self.applier.records_applied,
            "error": None,
        }
        try:
            recovery = recover(self.dir, verify=True)
        except ReproError as error:
            entry["error"] = f"{type(error).__name__}: {error}"
        else:
            if recovery is None:
                entry["committed"] = []
                entry["verified"] = True
                entry["recovered_lsn"] = 0
            else:
                entry["committed"] = list(recovery.committed)
                entry["verified"] = recovery.verified
                entry["violations"] = list(recovery.violations)
                entry["recovered_lsn"] = recovery.last_lsn
        return entry


async def _stop_pumps(
    stop: asyncio.Event, pump_tasks: "list[asyncio.Task]"
) -> None:
    stop.set()
    for task in pump_tasks:
        task.cancel()
    for task in pump_tasks:
        try:
            await task
        except asyncio.CancelledError:
            pass


class ReplicaSet:
    """Transport-free WAL shipping: one hub, N followers, their pumps.

    Each follower is pumped by a coroutine on the virtual loop — the
    exact core the TCP shipper wraps, minus the sockets.  ``partitions``
    are ``[follower_index, start, end]`` virtual-time windows.  Without
    a network a partitioned follower stays registered and silent (sync
    commits on the primary run into their deadlines, yielding
    *indeterminate* replies).  With one, ship and ack cross it, a
    partition is a dead link — the follower drops its hub registration
    and re-registers from ``applied_lsn`` on heal, which exercises the
    hub's record catch-up and snapshot-fallback resync (a pump
    cancelled while its ship is in transit does the same) — and the idle
    link is sampled on every poll, so lag percentiles weigh time, not
    traffic.
    """

    def __init__(
        self,
        hub: ReplicationHub,
        followers: "list[Follower]",
        clock: VirtualClock,
        partitions: "list[list[Any]]",
        *,
        horizon: float,
        net: Any = None,
        primary: str = "primary",
        samples: "list[dict[str, Any]] | None" = None,
    ) -> None:
        self.hub = hub
        self.followers = followers
        self.clock = clock
        self.partitions = partitions
        #: Pumps exit past this virtual time: their timers must not
        #: keep a genuinely stuck run alive forever, or the loop's
        #: deadlock detector would never fire.
        self.horizon = horizon
        self.net = net
        self.primary = primary
        self.samples = samples if samples is not None else []
        # Registered (and snapshot-seeded) before the epoch starts:
        # partitions model links failing, not followers that never
        # joined.
        for follower in followers:
            self._register(follower)

    def _register(self, follower: Follower) -> None:
        applier = follower.applier
        follower.slot, initial = self.hub.register(
            applier.applied_lsn, follower.name
        )
        if initial is not None:
            follower.apply(initial)
        self.hub.ack(follower.slot, applier.applied_lsn)

    def _partitioned(self, follower: Follower, now: float) -> bool:
        return any(
            window[0] == follower.index and window[1] <= now < window[2]
            for window in self.partitions
        )

    def _sample(self, follower: Follower) -> None:
        applier = follower.applier
        if applier.state is None:
            return  # no snapshot yet: nothing to observe
        applied_lsn, view = applier.read_view()
        self.samples.append(
            {
                "t": round(self.clock.now, 6),
                "replica": follower.index,
                "applied_lsn": applied_lsn,
                # Omniscient: lag against the hub's true durable tip,
                # not the tip the follower last heard about — a
                # partitioned follower's self-reported lag freezes.
                "lag_lsn": max(0, self.hub.durable_lsn - applied_lsn),
                "lag_ms": round(applier.lag_ms, 3),
                "view": dict(view),
            }
        )

    async def _step(self, follower: Follower, net: Any) -> bool:
        """Ship/apply/ack one message; sample the follower read."""
        if follower.slot is None:
            self._register(follower)
        message = self.hub.next_batch(follower.slot)
        if message is None:
            return False
        if net is not None:
            try:
                await net.transit(
                    self.primary,
                    follower.name,
                    len(encode_message(message)),
                )
            except asyncio.CancelledError:
                # The hub cursor is already past a batch that will
                # never arrive: drop the registration so the next step
                # re-registers from ``applied_lsn``.
                self.hub.unregister(follower.slot)
                follower.slot = None
                raise
        follower.apply(message)
        applied = follower.applier.applied_lsn
        if net is not None:
            await net.transit(follower.name, self.primary, 64)
        if follower.slot is not None:
            self.hub.ack(follower.slot, applied)
        self._sample(follower)
        return True

    async def pump(self, follower: Follower, stop: asyncio.Event) -> None:
        net = self.net
        while not stop.is_set():
            now = self.clock.now
            if now > self.horizon:
                return
            if self._partitioned(follower, now):
                if net is not None and follower.slot is not None:
                    self.hub.unregister(follower.slot)
                    follower.slot = None
            elif await self._step(follower, net):
                continue  # drain the backlog before sleeping
            if net is not None:
                self._sample(follower)
            try:
                await asyncio.wait_for(stop.wait(), _POLL)
            except asyncio.TimeoutError:
                pass

    async def catch_up(self) -> None:
        """Heal every partition and drain every backlog (clean runs).

        An operator action, not traffic: no transit, so it never
        suspends.
        """
        for follower in self.followers:
            while await self._step(follower, None):
                pass


# ---------------------------------------------------------------------------
# The transcript and its BUSY-retrying request
# ---------------------------------------------------------------------------


def _reply_code(reply: dict[str, Any]) -> "str | None":
    if reply.get("ok"):
        return None
    return (reply.get("error") or {}).get("code", "INTERNAL")


def _error_details(reply: dict[str, Any]) -> dict[str, Any]:
    return (reply.get("error") or {}).get("details") or {}


#: Ack sort key of a reply that carried no LSN: last, stably.
_LSN_UNKNOWN = 1 << 62


class Transcript:
    """One epoch's event log and client-visible state.

    Timestamps come from the virtual clock, so two runs of the same
    plan produce byte-identical transcripts.  ``net`` puts a transit
    around every hop; ``primary`` names the node requests go to by
    default (``None`` = single server, events carry no node).
    """

    def __init__(
        self,
        clock: VirtualClock,
        *,
        net: Any = None,
        primary: "str | None" = None,
    ) -> None:
        self.clock = clock
        self.net = net
        self.primary = primary
        self.events: list[dict[str, Any]] = []
        self.names: dict[str, str] = {}
        self.requests: dict[tuple[int, int], dict[str, Any]] = {}
        self.branch_map: dict[str, str] = {}
        #: Read-your-writes token per client: highest commit LSN any
        #: of the client's commit replies carried (including
        #: indeterminate ones — the commit may well be durable).
        self.session_lsn: dict[int, int] = {}
        self._rids: dict[int, int] = {}
        # (commit_lsn, rid, txn) in reply-arrival order.
        self._acked: list[tuple[int, int, str]] = []
        self._indeterminate: list[tuple[int, int, str]] = []

    def _commit_order(
        self, acks: "list[tuple[int, int, str]]"
    ) -> list[str]:
        # Acks that crossed a network arrive out of commit order; the
        # oracles want commit order, and the reply's commit_lsn is the
        # sort key a real client library would use.  In-process acks
        # already arrive in order (and sharded LSNs are per shard, so
        # they could not be sorted anyway).
        ordered = sorted(acks) if self.net is not None else acks
        return [txn for _, _, txn in ordered]

    @property
    def acked_committed(self) -> list[str]:
        return self._commit_order(self._acked)

    @property
    def indeterminate_committed(self) -> list[str]:
        return self._commit_order(self._indeterminate)

    def emit(self, kind: str, **fields: Any) -> None:
        event = {"t": round(self.clock.now, 6), "kind": kind}
        event.update(fields)
        self.events.append(event)

    def notify_for(self, client_id: int):
        def _notify(payload: dict[str, Any]) -> None:
            self.emit(
                "event",
                client=client_id,
                event=payload.get("event"),
                txn=payload.get("txn"),
            )

        return _notify

    def _record_commit(
        self,
        acks: "list[tuple[int, int, str]]",
        client_id: int,
        rid: int,
        txn: str,
        lsn: Any,
    ) -> None:
        known = isinstance(lsn, int) and not isinstance(lsn, bool)
        acks.append((lsn if known else _LSN_UNKNOWN, rid, txn))
        if known:
            self.session_lsn[client_id] = max(
                self.session_lsn.get(client_id, 0), lsn
            )

    async def request(
        self,
        client_id: int,
        session: SessionState,
        dispatcher: Any,
        op: str,
        params: dict[str, Any],
        *,
        txn: "str | None" = None,
        entity: "str | None" = None,
        node: "str | None" = None,
        bounds: "dict[str, Any] | None" = None,
    ) -> dict[str, Any]:
        """Submit one request, retrying BUSY with deterministic backoff."""
        target = node if node is not None else self.primary
        where = {} if target is None else {"node": target}
        rid = self._rids.get(client_id, 0) + 1
        self._rids[client_id] = rid
        entry: dict[str, Any] = {
            "client": client_id,
            "rid": rid,
            "op": op,
            "txn": txn,
            "entity": entity,
            "status": "pending",
            "outcome": None,
            **where,
        }
        if bounds is not None:
            entry["bounds"] = bounds
        self.requests[(client_id, rid)] = entry
        self.emit(
            "request", client=client_id, rid=rid, op=op, txn=txn, **where
        )
        net = self.net
        client_node = f"client{client_id}"
        nbytes = max(96, len(repr(params))) if net is not None else 0
        reply: dict[str, Any] = {}
        for attempt in range(_BUSY_RETRIES + 1):
            if net is not None:
                await net.transit(client_node, target, nbytes)
            outcome = dispatcher.submit(
                session, Request(rid, op, dict(params))
            )
            reply = (
                outcome if isinstance(outcome, dict) else await outcome
            )
            if net is not None:
                await net.transit(target, client_node, 256)
            code = _reply_code(reply)
            if code != "BUSY" or attempt == _BUSY_RETRIES:
                break
            self.emit("busy", client=client_id, rid=rid, op=op)
            await asyncio.sleep(_BUSY_BACKOFF * (attempt + 1))
        entry["status"] = "ok" if reply.get("ok") else f"error:{code}"
        entry["outcome"] = reply.get("outcome")
        details = _error_details(reply)
        extra: dict[str, Any] = {}
        if op == "follower_read":
            if reply.get("ok"):
                for key in ("applied_lsn", "lag_lsn", "role"):
                    entry[key] = extra[key] = reply.get(key)
            else:
                entry["error_details"] = dict(details)
        self.emit(
            "reply",
            client=client_id,
            rid=rid,
            op=op,
            ok=bool(reply.get("ok")),
            code=code,
            outcome=reply.get("outcome"),
            value=reply.get("value"),
            **extra,
        )
        if (
            op == "define"
            and reply.get("ok")
            and isinstance(reply.get("branches"), dict)
        ):
            # A cross-shard define: remember which per-shard branch
            # belongs to which client-visible gid, so the oracles can
            # translate WAL records back to acked transactions.
            for branch in reply["branches"].values():
                self.branch_map[branch] = reply["txn"]
        if op == "commit" and txn:
            if reply.get("outcome") == "committed":
                self._record_commit(
                    self._acked, client_id, rid, txn,
                    reply.get("commit_lsn"),
                )
            elif not reply.get("ok") and details.get("indeterminate"):
                self._record_commit(
                    self._indeterminate, client_id, rid, txn,
                    details.get("commit_lsn"),
                )
        return reply


# ---------------------------------------------------------------------------
# The epoch: dispatcher + pumps + scripted clients, then evidence
# ---------------------------------------------------------------------------


@dataclass
class FollowerReads:
    """How scripted ``follower_read`` ops are served by the followers."""

    max_lag_lsn: "int | None" = None
    #: Thread the session's commit-LSN token in as ``min_applied_lsn``.
    read_your_writes: bool = True


async def _kill_at(
    clock: VirtualClock, at: float, task: "asyncio.Task"
) -> None:
    await asyncio.sleep(max(0.0, at - clock.now))
    task.cancel()


class Epoch:
    """One primary stack serving ``plan``'s clients until done or dead.

    ``give_up`` is the reason clients put on clean-up aborts (it lands
    in WAL abort records); ``reads`` enables the ``follower_read``
    script op.
    """

    def __init__(
        self,
        plan: FuzzPlan,
        stack: Stack,
        clock: VirtualClock,
        *,
        give_up: str,
        replicas: "ReplicaSet | None" = None,
        net: Any = None,
        primary: "str | None" = None,
        reads: "FollowerReads | None" = None,
    ) -> None:
        self.plan = plan
        self.stack = stack
        self.clock = clock
        self.give_up = give_up
        self.replicas = replicas
        self.reads = reads
        self.transcript = Transcript(clock, net=net, primary=primary)
        #: ``{"point", "at_hit"}`` once the dispatcher was killed.
        self.crash: "dict[str, Any] | None" = None
        self.drain_summary: "dict[str, Any] | None" = None

    # -- the client script interpreter -------------------------------------

    async def _follower_read(
        self,
        client_id: int,
        sessions: "dict[int, SessionState]",
        entity: "str | None",
        index: int,
    ) -> None:
        reads = self.reads
        assert reads is not None
        followers = self.replicas.followers if self.replicas else ()
        follower = next((f for f in followers if f.index == index), None)
        if follower is None or not follower.serving:
            return  # promoted, retired, or no follower left this epoch
        session = sessions.get(index)
        if session is None:
            session = sessions[index] = SessionState(
                session_id=client_id + 1, notify=_noop_notify
            )
        params: dict[str, Any] = {}
        if entity is not None:
            params["entity"] = entity
        bounds: dict[str, Any] = {
            "max_lag_lsn": reads.max_lag_lsn,
            "min_applied_lsn": None,
        }
        if reads.max_lag_lsn is not None:
            params["max_lag_lsn"] = reads.max_lag_lsn
        token = self.transcript.session_lsn.get(client_id, 0)
        if reads.read_your_writes and token:
            params["min_applied_lsn"] = token
            bounds["min_applied_lsn"] = token
        assert follower.server is not None
        await self.transcript.request(
            client_id,
            session,
            follower.server.dispatcher,
            "follower_read",
            params,
            entity=entity,
            node=follower.name,
            bounds=bounds,
        )

    async def _run_client(self, cplan: ClientPlan) -> None:
        t = self.transcript
        dispatcher = self.stack.server.dispatcher
        client_id = cplan.client_id
        session = SessionState(
            session_id=client_id + 1, notify=t.notify_for(client_id)
        )
        follower_sessions: dict[int, SessionState] = {}
        requests_done = 0

        async def _step(op, params, *, txn=None, entity=None):
            nonlocal requests_done
            reply = await t.request(
                client_id,
                session,
                dispatcher,
                op,
                params,
                txn=txn,
                entity=entity,
            )
            requests_done += 1
            return reply

        async def _give_up(name):
            await _step(
                "abort", {"txn": name, "reason": self.give_up}, txn=name
            )

        def _disconnect_due() -> bool:
            return (
                cplan.disconnect_after is not None
                and requests_done >= cplan.disconnect_after
            )

        for txn_plan in cplan.txns:
            if _disconnect_due():
                break
            reply = await _step(
                "define",
                {
                    "updates": list(txn_plan.updates),
                    "input": txn_plan.input,
                    "output": txn_plan.output,
                    "predecessors": [
                        t.names[label]
                        for label in txn_plan.predecessors
                        if label in t.names
                    ],
                },
            )
            if not reply.get("ok"):
                continue
            name = reply["txn"]
            t.names[txn_plan.label] = name
            if _disconnect_due():
                break
            reply = await _step("validate", {"txn": name}, txn=name)
            if not reply.get("ok"):
                if _reply_code(reply) == "TIMEOUT":
                    await _give_up(name)
                continue
            if reply.get("outcome") == "failed":
                continue  # validation failure already aborted the txn
            dead = False
            for op in txn_plan.ops:
                if _disconnect_due() or dead:
                    break
                kind = op[0]
                if kind == "sleep":
                    await asyncio.sleep(op[1])
                    continue
                if kind == "follower_read" and self.reads is not None:
                    await self._follower_read(
                        client_id, follower_sessions, op[1], op[2]
                    )
                    continue
                if kind == "read":
                    reply = await _step(
                        "read",
                        {"txn": name, "entity": op[1]},
                        txn=name,
                        entity=op[1],
                    )
                elif kind == "write":
                    reply = await _step(
                        "write",
                        {"txn": name, "entity": op[1], "value": op[2]},
                        txn=name,
                        entity=op[1],
                    )
                elif kind == "commit":
                    reply = await _step("commit", {"txn": name}, txn=name)
                    if reply.get("ok") and reply.get("outcome") == "failed":
                        await _give_up(name)
                    dead = True
                elif kind == "abort":
                    reply = await _step(
                        "abort",
                        {"txn": name, "reason": "scripted abort"},
                        txn=name,
                    )
                    dead = True
                else:  # pragma: no cover — generators never emit others
                    raise ReproError(f"unknown planned op {kind!r}")
                code = _reply_code(reply)
                if code in _DEAD_CODES:
                    dead = True
                elif code == "TIMEOUT" and _error_details(reply).get(
                    "indeterminate"
                ):
                    # A replication-ack timeout: the commit is durable
                    # locally and may well survive — the protocol
                    # contract says the client must NOT treat it as
                    # lost, so no clean-up abort (it would undo the
                    # commit).
                    dead = True
                elif code == "TIMEOUT":
                    await _give_up(name)
                    dead = True
                elif code is not None and kind in ("read", "write"):
                    dead = True
        if _disconnect_due():
            t.emit("disconnect", client=client_id)
            await dispatcher.close_session(session)

    # -- the epoch runner --------------------------------------------------

    def _crashed(self, point: str) -> None:
        self.crash = {"point": point, "at_hit": self.plan.crash_at_hit}
        self.transcript.emit("crash", point=point)

    async def run(self, kill_at: "float | None" = None) -> None:
        """Serve until the clients finish or the dispatcher dies.

        The dispatcher dies of an armed crash point (a
        :class:`SimulatedCrash` raised inside it, or during the
        drain), or of ``kill_at``: a task cancels it at that virtual
        time the way SIGKILL would — even if every client finished
        early, because the epoch boundary is a point in time.
        """
        server = self.stack.server
        dispatcher_task = asyncio.ensure_future(server.dispatcher.run())
        pumps_stop = asyncio.Event()
        pump_tasks = (
            [
                asyncio.ensure_future(
                    self.replicas.pump(follower, pumps_stop)
                )
                for follower in self.replicas.followers
            ]
            if self.replicas is not None
            else []
        )
        client_tasks = [
            asyncio.ensure_future(self._run_client(cplan))
            for cplan in self.plan.clients
        ]
        clients_task = asyncio.ensure_future(
            asyncio.gather(*client_tasks, return_exceptions=False)
        )
        killer = (
            asyncio.ensure_future(
                _kill_at(self.clock, kill_at, dispatcher_task)
            )
            if kill_at is not None
            else None
        )
        await asyncio.wait(
            {dispatcher_task}
            if killer is not None
            else {dispatcher_task, clients_task},
            return_when=asyncio.FIRST_COMPLETED,
        )
        if dispatcher_task.done() and (
            killer is not None or not clients_task.done()
        ):
            # The dispatcher died under the clients: a kill, an
            # injected crash, or a harness bug (re-raised below).
            doomed = [clients_task, *client_tasks]
            if killer is not None:
                doomed.insert(0, killer)
            for task in doomed:
                task.cancel()
            for task in doomed:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
            await _stop_pumps(pumps_stop, pump_tasks)
            if dispatcher_task.cancelled():
                self._crashed(KILL_POINT)
                return
            exc = dispatcher_task.exception()
            if isinstance(exc, SimulatedCrash):
                self._crashed(exc.point)
                return
            if exc is not None:
                raise exc
            raise ReproError("dispatcher exited without being stopped")
        await clients_task
        await _stop_pumps(pumps_stop, pump_tasks)
        try:
            self.drain_summary = await server.shutdown()
        except SimulatedCrash as exc:
            # A crash point armed deep enough to fire during the
            # drain's cleanup aborts or the final checkpoint.
            self._crashed(exc.point)
            dispatcher_task.cancel()
            try:
                await dispatcher_task
            except asyncio.CancelledError:
                pass
            return
        await dispatcher_task

    # -- the evidence collector --------------------------------------------

    def collect(self, survivor: Path, deadlock: "str | None") -> Evidence:
        """Turn the finished epoch into oracle :class:`Evidence`.

        A crashed epoch is judged on a *survivor copy* under
        ``survivor`` — the WAL the way stable storage would keep it
        (``kill`` model: every ``os.write`` survives) — so the live
        directories stay untouched.  Every node directory then goes
        through the stock ``recover --verify`` gate, and so does every
        follower directory.
        """
        t = self.transcript
        stack = self.stack
        clean = self.crash is None and deadlock is None
        evidence = Evidence(
            plan=self.plan,
            events=t.events,
            names=t.names,
            acked_committed=t.acked_committed,
            indeterminate_committed=t.indeterminate_committed,
            requests=t.requests,
            nodes=[
                NodeEvidence(index, manager=manager if clean else None)
                for index, manager in enumerate(stack.managers)
            ],
            crashed=self.crash is not None,
            crash_info=self.crash,
            deadlock=deadlock,
            dispatcher=stack.server.dispatcher,
            drain_summary=self.drain_summary,
            registry=stack.registry,
            branch_map=dict(t.branch_map),
        )
        if stack.dirs:
            self._recover_nodes(evidence, survivor)
        if self.replicas is not None:
            evidence.replicas = [
                follower.recover_entry()
                for follower in self.replicas.followers
            ]
            evidence.follower_samples = list(self.replicas.samples)
        return evidence

    def _recover_nodes(self, evidence: Evidence, survivor: Path) -> None:
        stack = self.stack
        root, targets = stack.wal_root, stack.dirs
        if evidence.crashed:
            # Copy first, then release the live fds.
            targets = [
                build_survivor_copy(
                    wal_dir,
                    survivor / wal_dir.relative_to(root),
                    mode="kill",
                )
                for wal_dir in stack.dirs
            ]
            root = survivor
        for manager in stack.managers:
            # Still open after a crash or a deadlock (shutdown() never
            # completed); close so the scan reads settled bytes.
            if manager.wal is not None and not manager.wal.closed:
                manager.wal.close()
        try:
            # In-doubt 2PC branches resolve first (presumed abort);
            # a no-op on an unsharded layout.
            evidence.resolutions = resolve_in_doubt(root)
            for node, target in zip(evidence.nodes, targets):
                node.recovery = recover(target, verify=True)
                node.records = list(scan_wal(target).records)
        except ReproError as error:
            evidence.recovery_error = f"{type(error).__name__}: {error}"
            evidence.resolutions = None
            for node in evidence.nodes:
                node.recovery = node.records = None
