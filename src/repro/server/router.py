"""Shard router: entity-hash routing plus a cross-shard 2PC coordinator.

A sharded server runs N completely independent single-threaded stacks
(:class:`~repro.server.session.CommandDispatcher` + manager + WAL
directory), one per shard, and puts this router in front of them.  The
router owns exactly the cross-shard state — everything else is
forwarded verbatim:

* **Entity routing** hashes an entity's *affinity key* (the name up to
  its last underscore, so ``m3_e2`` and ``m3_e7`` land together) onto a
  shard.  A transaction whose declared read/write footprint touches one
  shard is forwarded to that shard's dispatcher untouched — the fast
  path is byte-identical to an unsharded server.
* **Transaction routing** needs no table: shard ``i``'s manager roots
  its tree at ``sh{i}``, so every branch name is self-describing
  (``sh2.5`` → shard 2).
* **Cross-shard transactions** become one branch per participating
  shard.  The client sees a single name — the *gid*, which is the
  coordinator branch's name (coordinator = lowest participant shard).
  Commit runs two-phase: durable PREPARE on every branch (each prepare
  passes the full commit gate first, so a prepared branch's reads-from
  authors are all terminated and durable), then phase 2 commits the
  coordinator branch *first* — its COMMIT record **is** the global
  decision — and the remaining branches after.  A branch that crashes
  between its PREPARE and its COMMIT is resolved at recovery by
  :func:`~repro.durability.shard_recovery.resolve_in_doubt`
  (presumed abort: no committed coordinator branch, no commit).

Locality assumption (documented in ``docs/server.md``): constraint and
predicate *clauses* are assigned to the shard of their first entity, so
cross-shard consistency is exact only when each clause's entities share
an affinity key.  The affinity hash makes that the natural layout.
"""

from __future__ import annotations

import asyncio
import itertools
import zlib
from dataclasses import dataclass
from typing import Any

from ..core.predicates import Clause, Predicate
from ..obs.metrics import MetricsRegistry
from .errors import (
    ErrorCode,
    InvalidArgument,
    NotOwner,
    UnknownTransaction,
)
from .protocol import (
    OPS,
    ROUTE_ENTITY,
    ROUTE_REFUSED,
    ROUTE_ROOT,
    Request,
    bind,
    error_reply,
    error_response,
    ok_response,
)
from .session import CommandDispatcher, SessionState


#: Phase-2 commit retry budget for shards answering ``BUSY``.
_PHASE2_BUSY_RETRIES = 25
_PHASE2_BUSY_BACKOFF = 0.02


def affinity_key(entity: str) -> str:
    """The sharding key: the entity name up to its last underscore.

    ``m3_e2`` → ``m3`` (all of module 3 colocates); a name without an
    underscore is its own key (``x`` → ``x``).
    """
    head, sep, _tail = entity.rpartition("_")
    return head if sep else entity


def shard_of(entity: str, shards: int) -> int:
    """Deterministic entity → shard assignment (CRC-32 of the key)."""
    return zlib.crc32(affinity_key(entity).encode("utf-8")) % shards


@dataclass(slots=True)
class _CrossTxn:
    """One live cross-shard transaction: its branches and 2PC roles."""

    gid: str
    session: SessionState
    branches: dict[int, str]
    coordinator: int
    #: The client-visible parent gid when this is a *nested* cross
    #: transaction (committed relative to the parent — no 2PC needed).
    parent_gid: str | None = None
    terminated: bool = False
    aborting: bool = False


class ShardRouter:
    """Front-end over per-shard dispatchers; API-compatible with one.

    The :class:`~repro.server.server.TransactionServer` talks to this
    exactly as it talks to a single ``CommandDispatcher``: sync
    ``submit`` returning a dict or future, ``run``/``stop``/``drain``/
    ``close_session``, and the ``queue_depth``/``parked_count``
    surface the metrics endpoint reads.
    """

    def __init__(
        self,
        dispatchers: list[CommandDispatcher],
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if not dispatchers:
            raise ValueError("at least one shard dispatcher required")
        self._dispatchers = list(dispatchers)
        self._registry = registry
        self.replication = None  # sharding excludes replication
        self._stopping = False
        #: gid → live cross-shard transaction.
        self._cross: dict[str, _CrossTxn] = {}
        #: branch name → gid, for event translation and cascade maps.
        self._branch_gid: dict[str, str] = {}
        #: (session_id, shard) → shadow session.  One client session
        #: cannot be shared across dispatchers (ownership checks call
        #: into the shard's own manager), so each shard sees a shadow
        #: whose notifier funnels back through the router.
        self._shadows: dict[tuple[int, int], SessionState] = {}

    # -- dispatcher-compatible surface ---------------------------------------

    @property
    def shards(self) -> int:
        return len(self._dispatchers)

    @property
    def dispatchers(self) -> list[CommandDispatcher]:
        return list(self._dispatchers)

    @property
    def draining(self) -> bool:
        return self._stopping

    @property
    def queue_depth(self) -> int:
        return sum(d.queue_depth for d in self._dispatchers)

    @property
    def parked_count(self) -> int:
        return sum(d.parked_count for d in self._dispatchers)

    async def run(self) -> None:
        await asyncio.gather(*(d.run() for d in self._dispatchers))

    async def stop(self) -> None:
        for dispatcher in self._dispatchers:
            await dispatcher.stop()

    async def drain(self, grace: float = 2.0) -> dict[str, Any]:
        """Drain every shard concurrently and merge the summaries."""
        self._stopping = True
        summaries = await asyncio.gather(
            *(d.drain(grace) for d in self._dispatchers)
        )
        aborted: list[str] = []
        parked_failed = 0
        for summary in summaries:
            aborted.extend(summary["aborted"])
            parked_failed += summary["parked_failed"]
        for ct in self._cross.values():
            ct.terminated = True
        self._cross.clear()
        self._branch_gid.clear()
        return {"parked_failed": parked_failed, "aborted": aborted}

    async def close_session(self, session: SessionState) -> None:
        """Tear down a disconnected client on every shard it touched."""
        session.closed = True
        for ct in list(self._cross.values()):
            # Suppress per-branch abort fan-out/notification storms:
            # the per-shard close below aborts every branch anyway.
            if ct.session.session_id == session.session_id:
                ct.terminated = True
                self._forget(ct)
        for key in sorted(self._shadows):
            session_id, shard = key
            if session_id != session.session_id:
                continue
            shadow = self._shadows.pop(key)
            await self._dispatchers[shard].close_session(shadow)

    def submit(
        self, session: SessionState, request: Request
    ) -> "asyncio.Future[dict[str, Any]] | dict[str, Any]":
        """Route one request; never blocks (mirrors the dispatcher)."""
        if self._stopping:
            return error_response(
                request.request_id,
                ErrorCode.SHUTTING_DOWN,
                "server is draining; no new requests admitted",
            )
        return asyncio.get_running_loop().create_task(
            self._handle(session, request)
        )

    # -- routing helpers -----------------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)

    def _shard_of(self, entity: str) -> int:
        return shard_of(entity, len(self._dispatchers))

    def _txn_shard(self, name: str) -> int:
        """Shard index off a branch name's root component (``sh2.…``)."""
        head = name.split(".", 1)[0]
        if head.startswith("sh") and head[2:].isdecimal():
            if int(head[2:]) < len(self._dispatchers):
                return int(head[2:])
        raise UnknownTransaction(f"unknown transaction {name!r}")

    def _shadow(self, session: SessionState, shard: int) -> SessionState:
        key = (session.session_id, shard)
        shadow = self._shadows.get(key)
        if shadow is None:
            shadow = SessionState(
                session.session_id,
                notify=lambda frame, s=session: self._on_event(s, frame),
                peer=session.peer,
            )
            self._shadows[key] = shadow
        return shadow

    def _on_event(self, session: SessionState, frame: dict[str, Any]) -> None:
        """Translate a per-branch event into the client's vocabulary.

        A server-side abort of one branch of a cross-shard transaction
        aborts the *whole* transaction: notify the client once under
        the gid, then fan the abort out to the sibling branches.
        """
        branch = frame.get("txn")
        gid = self._branch_gid.get(branch) if branch else None
        if gid is None:
            session.notify(frame)
            return
        ct = self._cross.get(gid)
        if ct is None or ct.terminated:
            return
        if frame.get("event") == "abort":
            ct.terminated = True
            session.notify({**frame, "txn": gid})
            reason = frame.get("reason") or "sibling branch aborted"
            asyncio.ensure_future(self._abort_all(ct, reason))
            return
        session.notify({**frame, "txn": gid})

    async def _call(
        self,
        shard: int,
        session: SessionState,
        op: str,
        params: dict[str, Any],
        request_id: int = -1,
        busy_retries: int = 0,
    ) -> dict[str, Any]:
        """One request to one shard's dispatcher.

        Phase-2 commits pass ``busy_retries`` to ride out a full shard
        queue: once the decision is (or is about to be) durable, a
        transient ``BUSY`` must not strand a prepared branch — it would
        be force-aborted at drain while its siblings committed.
        Retries are bounded; recovery still covers a shard that stays
        saturated past them.
        """
        shadow = self._shadow(session, shard)
        for attempt in itertools.count():
            outcome = self._dispatchers[shard].submit(
                shadow, Request(request_id, op, dict(params))
            )
            reply = outcome if isinstance(outcome, dict) else await outcome
            busy = (reply.get("error") or {}).get("code") == "BUSY"
            if not busy or attempt >= busy_retries:
                return reply
            await asyncio.sleep(_PHASE2_BUSY_BACKOFF * (attempt + 1))

    def _forget(self, ct: _CrossTxn) -> None:
        self._cross.pop(ct.gid, None)
        for branch in ct.branches.values():
            self._branch_gid.pop(branch, None)

    def _translate(self, names: list[str]) -> list[str]:
        """Branch names → client-visible names (gids), deduplicated."""
        return list(
            dict.fromkeys(self._branch_gid.get(name, name) for name in names)
        )

    async def _abort_all(self, ct: _CrossTxn, reason: str) -> None:
        """Best-effort abort of every branch (idempotent, errors eaten).

        Used for 2PC presumed-abort and sibling fan-out: a branch that
        is already terminated answers with a harmless error.
        """
        if ct.aborting:
            return
        ct.aborting = True
        await self._fanout(ct, "abort", reason=reason)
        self._forget(ct)

    async def _fanout(
        self,
        ct: _CrossTxn,
        op: str,
        rid: int = -1,
        *,
        skip: int | None = None,
        busy_retries: int = 0,
        **extra: Any,
    ) -> list[dict[str, Any]]:
        """``op`` on every branch of ``ct`` at once (but shard
        ``skip``); the replies come back in shard order."""
        return await asyncio.gather(
            *(
                self._call(
                    shard,
                    ct.session,
                    op,
                    {"txn": branch, **extra},
                    rid,
                    busy_retries,
                )
                for shard, branch in sorted(ct.branches.items())
                if shard != skip
            )
        )

    async def _fail_all(
        self,
        rid: int,
        ct: _CrossTxn,
        replies: list[dict[str, Any]],
        wanted: str,
        reason: str,
    ) -> dict[str, Any] | None:
        """All-or-nothing over one fan-out's ``replies``: if a branch
        answered anything but ``outcome == wanted``, abort every branch
        and return the client's reply for that first failure."""
        failure = next(
            (
                reply
                for reply in replies
                if not reply.get("ok") or reply.get("outcome") != wanted
            ),
            None,
        )
        if failure is None:
            return None
        ct.terminated = True
        await self._abort_all(ct, reason)
        if failure.get("ok") is False:
            return failure
        return ok_response(
            rid,
            outcome="failed",
            reason=failure.get("reason"),
            aborted=[ct.gid] + self._translate(failure.get("aborted", [])),
        )

    # -- the request pipeline ------------------------------------------------

    async def _handle(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        try:
            return await self._execute(session, request)
        except Exception as error:  # noqa: BLE001 — fault barrier
            return error_reply(request.request_id, error)

    async def _execute(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        op, rid = request.op, request.request_id
        spec = OPS.get(op)
        if spec is not None and spec.route == ROUTE_REFUSED:
            raise InvalidArgument(
                f"{op!r} is not available on a sharded server "
                "(replication and sharding are mutually exclusive)"
            )
        args = bind(op, request.params)
        if not spec.txn_scoped:
            return await getattr(self, "_op_" + op)(
                session, request, **args
            )
        txn = args["txn"]
        ct = self._cross.get(txn)
        if ct is None:
            # Single-shard transaction: forward verbatim.
            return await self._call(
                self._txn_shard(txn), session, op, request.params, rid
            )
        if ct.session.session_id != session.session_id:
            raise NotOwner(
                f"transaction {txn} belongs to another session"
            )
        if spec.route == ROUTE_ROOT:
            raise InvalidArgument(
                f"operation {op!r} is not supported on a cross-shard "
                f"transaction ({txn})"
            )
        if spec.route == ROUTE_ENTITY:
            return await self._entity_op_cross(
                rid, ct, op, request.params, args["entity"]
            )
        del args["txn"]
        return await getattr(self, "_cross_" + op)(rid, ct, **args)

    async def _op_ping(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        return ok_response(request.request_id, pong=True)

    async def _op_hello(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        response = await self._call(
            0, session, "hello", {}, request.request_id
        )
        if response.get("ok"):
            return {**response, "shards": self.shards}
        return response

    async def _op_stats(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        snapshot = (
            self._registry.snapshot() if self._registry is not None else {}
        )
        return ok_response(
            request.request_id,
            stats=snapshot,
            queue_depth=self.queue_depth,
            parked=self.parked_count,
            shards={
                str(index): {
                    "queue_depth": dispatcher.queue_depth,
                    "parked": dispatcher.parked_count,
                }
                for index, dispatcher in enumerate(self._dispatchers)
            },
        )

    # -- define: the routing decision ----------------------------------------

    @staticmethod
    def _clauses(predicate: Predicate) -> "tuple[Clause, ...]":
        return () if predicate.is_true else predicate.clauses

    def _clause_shard(self, clause: Clause) -> int:
        return self._shard_of(sorted(clause.object)[0])

    @staticmethod
    def _by_shard(items: Any, shard_of: Any) -> dict[int, list[Any]]:
        """Group entity names, or clauses, by the shard they route to."""
        grouped: dict[int, list[Any]] = {}
        for item in items:
            grouped.setdefault(shard_of(item), []).append(item)
        return grouped

    async def _op_define(
        self,
        session: SessionState,
        request: Request,
        updates: list[str],
        input: Predicate,
        output: Predicate,
        parent: str | None,
        predecessors: list[str],
    ) -> dict[str, Any]:
        rid = request.request_id
        parent = parent or None  # "" is the root, as on one shard
        shard_updates = self._by_shard(updates, self._shard_of)
        shard_input = self._by_shard(
            self._clauses(input), self._clause_shard
        )
        shard_output = self._by_shard(
            self._clauses(output), self._clause_shard
        )

        # Predecessor edges are per-shard obligations: a predecessor's
        # shard joins the participant set so the ordering edge lives
        # where the predecessor does (a stub branch if nothing else
        # puts the transaction there).  Unroutable names are dropped,
        # mirroring the dispatcher's vanished-predecessor leniency.
        pred_by_shard: dict[int, list[str]] = {}
        for predecessor in predecessors:
            pct = self._cross.get(predecessor)
            if pct is not None:
                for shard, branch in pct.branches.items():
                    pred_by_shard.setdefault(shard, []).append(branch)
                continue
            try:
                shard = self._txn_shard(predecessor)
            except UnknownTransaction:
                continue
            pred_by_shard.setdefault(shard, []).append(predecessor)

        participants = (
            set(shard_updates)
            | set(shard_input)
            | set(shard_output)
            | set(pred_by_shard)
        )
        if not participants:
            participants = {0}

        parent_ct = self._cross.get(parent) if parent else None

        if len(participants) == 1:
            (shard,) = participants
            return await self._define_single(
                session, request, shard, parent, parent_ct, pred_by_shard
            )
        return await self._define_cross(
            session,
            rid,
            sorted(participants),
            shard_updates,
            shard_input,
            shard_output,
            pred_by_shard,
            parent,
            parent_ct,
        )

    async def _define_single(
        self,
        session: SessionState,
        request: Request,
        shard: int,
        parent: str | None,
        parent_ct: "_CrossTxn | None",
        pred_by_shard: dict[int, list[str]],
    ) -> dict[str, Any]:
        """Single-shard fast path: forward, rewriting only names."""
        forwarded = dict(request.params)
        forwarded["predecessors"] = pred_by_shard.get(shard, [])
        if parent_ct is not None:
            branch = parent_ct.branches.get(shard)
            if branch is None:
                raise InvalidArgument(
                    f"parent {parent} has no branch on shard {shard}; "
                    "a nested transaction may only touch its parent's "
                    "shards"
                )
            forwarded["parent"] = branch
        elif parent is not None and self._txn_shard(parent) != shard:
            raise InvalidArgument(
                f"parent {parent} lives on shard "
                f"{self._txn_shard(parent)} but the child's footprint "
                f"routes to shard {shard}"
            )
        return await self._call(
            shard, session, "define", forwarded, request.request_id
        )

    async def _define_cross(
        self,
        session: SessionState,
        rid: int,
        participants: list[int],
        shard_updates: dict[int, list[str]],
        shard_input: dict[int, list[Clause]],
        shard_output: dict[int, list[Clause]],
        pred_by_shard: dict[int, list[str]],
        parent: str | None,
        parent_ct: "_CrossTxn | None",
    ) -> dict[str, Any]:
        if parent is not None and parent_ct is None:
            raise InvalidArgument(
                f"parent {parent} is single-shard but the child spans "
                f"shards {participants}"
            )
        if parent_ct is not None:
            missing = [
                shard
                for shard in participants
                if shard not in parent_ct.branches
            ]
            if missing:
                raise InvalidArgument(
                    f"child spans shards {missing} outside parent "
                    f"{parent}'s shard set"
                )
        responses = await asyncio.gather(
            *(
                self._call(
                    shard,
                    session,
                    "define",
                    {
                        "updates": shard_updates.get(shard, []),
                        "input": str(
                            Predicate.of(*shard_input.get(shard, []))
                        ),
                        "output": str(
                            Predicate.of(*shard_output.get(shard, []))
                        ),
                        "predecessors": pred_by_shard.get(shard, []),
                        **(
                            {"parent": parent_ct.branches[shard]}
                            if parent_ct is not None
                            else {}
                        ),
                    },
                    rid,
                )
                for shard in participants
            )
        )
        branches: dict[int, str] = {}
        failure: dict[str, Any] | None = None
        for shard, response in zip(participants, responses):
            if response.get("ok") and "txn" in response:
                branches[shard] = response["txn"]
            elif failure is None:
                failure = response
        if failure is not None:
            for shard, branch in branches.items():
                await self._call(
                    shard,
                    session,
                    "abort",
                    {"txn": branch, "reason": "sibling define failed"},
                )
            return failure
        coordinator = min(participants)
        gid = branches[coordinator]
        ct = _CrossTxn(
            gid=gid,
            session=session,
            branches=branches,
            coordinator=coordinator,
            parent_gid=parent if parent_ct is not None else None,
        )
        self._cross[gid] = ct
        for branch in branches.values():
            self._branch_gid[branch] = gid
        self._count("server.cross.defined")
        return ok_response(
            rid,
            txn=gid,
            shards=participants,
            branches={
                str(shard): branch for shard, branch in branches.items()
            },
        )

    # -- cross-shard lifecycle ops -------------------------------------------

    async def _cross_validate(
        self, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        replies = await self._fanout(ct, "validate", rid)
        # One failed branch (aborted inside its scheduler) kills the
        # whole transaction; the surviving branches are aborted.
        failed = await self._fail_all(
            rid, ct, replies, "ok", "sibling branch failed validation"
        )
        if failed is not None:
            return failed
        assigned: dict[str, str] = {}
        for reply in replies:
            assigned.update(reply.get("assigned", {}))
        return ok_response(rid, outcome="ok", assigned=assigned)

    async def _entity_op_cross(
        self,
        rid: int,
        ct: _CrossTxn,
        op: str,
        params: dict[str, Any],
        entity: str,
    ) -> dict[str, Any]:
        shard = self._shard_of(entity)
        branch = ct.branches.get(shard)
        if branch is None:
            raise InvalidArgument(
                f"entity {entity!r} routes to shard {shard}, outside "
                f"transaction {ct.gid}'s declared footprint "
                f"(shards {sorted(ct.branches)})"
            )
        forwarded = dict(params)
        forwarded["txn"] = branch
        return await self._call(shard, ct.session, op, forwarded, rid)

    async def _cross_commit(
        self, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        if ct.terminated:
            raise UnknownTransaction(
                f"transaction {ct.gid} already terminated"
            )
        shards = sorted(ct.branches)
        if ct.parent_gid is not None:
            # Nested: each branch commits into its parent branch, so no
            # 2PC — durability and atomicity are the parent's problem
            # when *it* commits.
            replies = await self._fanout(ct, "commit", rid)
            ct.terminated = True
            failed = await self._fail_all(
                rid,
                ct,
                replies,
                "committed",
                "sibling branch failed to commit",
            )
            if failed is not None:
                return failed
            self._forget(ct)
            return ok_response(rid, outcome="committed", shards=shards)
        # Phase 1: every branch logs a durable PREPARE.  Each prepare
        # runs the full commit gate first (predecessors resolved,
        # reads-from authors terminated), parking until it can promise.
        # A refusal is a presumed abort: no decision record is written.
        prepares = await self._fanout(
            ct,
            "prepare",
            rid,
            gid=ct.gid,
            participants={
                str(shard): branch for shard, branch in ct.branches.items()
            },
            coordinator=ct.coordinator,
        )
        failed = await self._fail_all(
            rid, ct, prepares, "prepared", "2PC prepare failed"
        )
        if failed is None:
            # Phase 2: the coordinator branch's COMMIT record is the
            # global decision — it must be durable before any other
            # branch commits (recovery resolves in-doubt branches by
            # looking *only* at the coordinator branch's terminal state).
            decision = await self._call(
                ct.coordinator,
                ct.session,
                "commit",
                {"txn": ct.branches[ct.coordinator]},
                rid,
                _PHASE2_BUSY_RETRIES,
            )
            failed = await self._fail_all(
                rid,
                ct,
                [decision],
                "committed",
                "2PC decision commit failed",
            )
        if failed is not None:
            self._count("server.cross.aborted")
            return failed
        ct.terminated = True
        for reply in await self._fanout(
            ct,
            "commit",
            rid,
            skip=ct.coordinator,
            busy_retries=_PHASE2_BUSY_RETRIES,
        ):
            if not reply.get("ok") or reply.get("outcome") != "committed":
                # The decision is durable; this branch resolves to
                # committed at recovery (see resolve_in_doubt).
                self._count("server.cross.phase2_incomplete")
        self._forget(ct)
        self._count("server.cross.committed")
        extra: dict[str, Any] = {}
        if "commit_lsn" in decision:
            extra["commit_lsn"] = decision["commit_lsn"]
        return ok_response(
            rid, outcome="committed", shards=shards, **extra
        )

    async def _cross_abort(
        self, rid: int, ct: _CrossTxn, reason: str | None
    ) -> dict[str, Any]:
        ct.terminated = True
        self._count("server.cross.aborted")
        ct.aborting = True
        replies = await self._fanout(
            ct, "abort", rid, reason=reason or "client requested"
        )
        own = set(ct.branches.values())
        cascade: list[str] = []
        for reply in replies:
            if reply.get("ok"):
                cascade.extend(
                    name
                    for name in reply.get("cascade", [])
                    if name not in own
                )
        self._forget(ct)
        return ok_response(
            rid, outcome="aborted", cascade=self._translate(cascade)
        )

    async def _cross_view(
        self, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        replies = await self._fanout(ct, "view", rid)
        views = {
            str(shard): reply.get("view")
            for shard, reply in zip(sorted(ct.branches), replies)
            if reply.get("ok")
        }
        failure = next((r for r in replies if not r.get("ok")), None)
        if failure is not None and not views:
            return failure
        return ok_response(rid, view=views, gid=ct.gid)
