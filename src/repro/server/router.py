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
import zlib
from dataclasses import dataclass
from typing import Any

from ..core.predicates import Clause, Predicate, parse_cached
from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from .errors import (
    ErrorCode,
    InvalidArgument,
    NotOwner,
    ServerError,
    UnknownTransaction,
)
from .protocol import Request, error_response, ok_response
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
        if head.startswith("sh"):
            try:
                index = int(head[2:])
            except ValueError:
                index = -1
            if 0 <= index < len(self._dispatchers):
                return index
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
    ) -> dict[str, Any]:
        shadow = self._shadow(session, shard)
        outcome = self._dispatchers[shard].submit(
            shadow, Request(request_id, op, dict(params))
        )
        return outcome if isinstance(outcome, dict) else await outcome

    async def _call_retry_busy(
        self,
        shard: int,
        session: SessionState,
        op: str,
        params: dict[str, Any],
        request_id: int = -1,
    ) -> dict[str, Any]:
        """Like :meth:`_call` but rides out a full shard queue.

        Used for phase-2 commits: once the decision is (or is about to
        be) durable, a transient ``BUSY`` must not strand a prepared
        branch — it would be force-aborted at drain while its siblings
        committed.  Retries are bounded; recovery still covers a shard
        that stays saturated past them.
        """
        reply: dict[str, Any] = {}
        for attempt in range(_PHASE2_BUSY_RETRIES + 1):
            reply = await self._call(shard, session, op, params, request_id)
            code = (
                (reply.get("error") or {}).get("code")
                if reply.get("ok") is False
                else None
            )
            if code != "BUSY" or attempt == _PHASE2_BUSY_RETRIES:
                return reply
            await asyncio.sleep(_PHASE2_BUSY_BACKOFF * (attempt + 1))
        return reply

    def _forget(self, ct: _CrossTxn) -> None:
        self._cross.pop(ct.gid, None)
        for branch in ct.branches.values():
            self._branch_gid.pop(branch, None)

    def _translate(self, names: list[str]) -> list[str]:
        """Branch names → client-visible names (gids), deduplicated."""
        seen: set[str] = set()
        out: list[str] = []
        for name in names:
            visible = self._branch_gid.get(name, name)
            if visible not in seen:
                seen.add(visible)
                out.append(visible)
        return out

    async def _abort_all(
        self, ct: _CrossTxn, reason: str
    ) -> list[dict[str, Any]]:
        """Best-effort abort of every branch (idempotent, errors eaten).

        Used for 2PC presumed-abort and sibling fan-out: a branch that
        is already terminated answers with a harmless error.
        """
        if ct.aborting:
            return []
        ct.aborting = True
        results = await asyncio.gather(
            *(
                self._call(
                    shard,
                    ct.session,
                    "abort",
                    {"txn": branch, "reason": reason},
                )
                for shard, branch in sorted(ct.branches.items())
            )
        )
        self._forget(ct)
        return list(results)

    # -- the request pipeline ------------------------------------------------

    async def _handle(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        try:
            return await self._execute(session, request)
        except ServerError as error:
            return error_response(
                request.request_id, error.code, str(error), **error.details
            )
        except ReproError as error:
            return error_response(
                request.request_id, ErrorCode.INVALID_ARG, str(error)
            )
        except Exception as error:  # noqa: BLE001 — fault barrier
            return error_response(
                request.request_id,
                ErrorCode.INTERNAL,
                f"{type(error).__name__}: {error}",
            )

    async def _execute(
        self, session: SessionState, request: Request
    ) -> dict[str, Any]:
        op, params, rid = request.op, request.params, request.request_id
        if op == "ping":
            return ok_response(rid, pong=True)
        if op == "hello":
            response = await self._call(0, session, "hello", {}, rid)
            if response.get("ok"):
                response = dict(response)
                response["shards"] = self.shards
            return response
        if op == "stats":
            return self._op_stats(rid)
        if op in ("follower_read", "repl_status", "promote"):
            raise InvalidArgument(
                f"{op!r} is not available on a sharded server "
                "(replication and sharding are mutually exclusive)"
            )
        if op == "define":
            return await self._op_define(session, rid, params)
        txn = params.get("txn")
        if not isinstance(txn, str) or not txn:
            raise InvalidArgument("missing required parameter 'txn'")
        ct = self._cross.get(txn)
        if ct is None:
            # Single-shard transaction: forward verbatim.
            return await self._call(
                self._txn_shard(txn), session, op, params, rid
            )
        if ct.session.session_id != session.session_id:
            raise NotOwner(
                f"transaction {txn} belongs to another session"
            )
        if op == "validate":
            return await self._validate_cross(session, rid, ct)
        if op in ("read", "write", "begin_write", "end_write"):
            return await self._entity_op_cross(session, rid, ct, op, params)
        if op == "commit":
            return await self._commit_cross(session, rid, ct)
        if op == "abort":
            return await self._abort_cross(session, rid, ct, params)
        if op == "view":
            return await self._view_cross(session, rid, ct)
        raise InvalidArgument(
            f"operation {op!r} is not supported on a cross-shard "
            f"transaction ({txn})"
        )

    def _op_stats(self, rid: int) -> dict[str, Any]:
        snapshot = (
            self._registry.snapshot() if self._registry is not None else {}
        )
        return ok_response(
            rid,
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

    async def _op_define(
        self, session: SessionState, rid: int, params: dict[str, Any]
    ) -> dict[str, Any]:
        updates = params.get("updates") or []
        if not isinstance(updates, list) or any(
            not isinstance(item, str) for item in updates
        ):
            raise InvalidArgument(
                "parameter 'updates' must be a list of strings"
            )
        input_pred = self._predicate(params, "input")
        output_pred = self._predicate(params, "output")

        shard_updates: dict[int, list[str]] = {}
        for entity in updates:
            shard_updates.setdefault(self._shard_of(entity), []).append(
                entity
            )
        shard_input: dict[int, list[Clause]] = {}
        for clause in self._clauses(input_pred):
            shard_input.setdefault(self._clause_shard(clause), []).append(
                clause
            )
        shard_output: dict[int, list[Clause]] = {}
        for clause in self._clauses(output_pred):
            shard_output.setdefault(self._clause_shard(clause), []).append(
                clause
            )

        # Predecessor edges are per-shard obligations: a predecessor's
        # shard joins the participant set so the ordering edge lives
        # where the predecessor does (a stub branch if nothing else
        # puts the transaction there).  Unroutable names are dropped,
        # mirroring the dispatcher's vanished-predecessor leniency.
        pred_by_shard: dict[int, list[str]] = {}
        for predecessor in params.get("predecessors") or []:
            if not isinstance(predecessor, str):
                raise InvalidArgument(
                    "parameter 'predecessors' must be a list of strings"
                )
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

        parent = params.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise InvalidArgument("parameter 'parent' must be a string")
        parent_ct = self._cross.get(parent) if parent else None

        if len(participants) == 1:
            (shard,) = participants
            return await self._define_single(
                session, rid, params, shard, parent_ct, pred_by_shard
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

    @staticmethod
    def _predicate(params: dict[str, Any], role: str) -> Predicate:
        text = params.get(role, "true")
        if not isinstance(text, str) or not text:
            raise InvalidArgument(
                f"parameter {role!r} must be a non-empty string"
            )
        try:
            return parse_cached(text)
        except ReproError as error:
            raise InvalidArgument(
                f"unparseable {role} predicate {text!r}: {error}"
            ) from error

    async def _define_single(
        self,
        session: SessionState,
        rid: int,
        params: dict[str, Any],
        shard: int,
        parent_ct: "_CrossTxn | None",
        pred_by_shard: dict[int, list[str]],
    ) -> dict[str, Any]:
        """Single-shard fast path: forward, rewriting only names."""
        forwarded = dict(params)
        forwarded["predecessors"] = pred_by_shard.get(shard, [])
        parent = params.get("parent")
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
        return await self._call(shard, session, "define", forwarded, rid)

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

    async def _validate_cross(
        self, session: SessionState, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        shards = sorted(ct.branches)
        responses = await asyncio.gather(
            *(
                self._call(
                    shard, session, "validate", {"txn": ct.branches[shard]}, rid
                )
                for shard in shards
            )
        )
        assigned: dict[str, str] = {}
        failure: dict[str, Any] | None = None
        for response in responses:
            if response.get("ok") and response.get("outcome") == "ok":
                assigned.update(response.get("assigned", {}))
            elif failure is None:
                failure = response
        if failure is None:
            return ok_response(rid, outcome="ok", assigned=assigned)
        # One branch failed (aborted inside its scheduler) — the whole
        # transaction is dead; abort the surviving branches.
        ct.terminated = True
        await self._abort_all(ct, "sibling branch failed validation")
        if failure.get("ok") is False:
            return failure
        cascade = self._translate(failure.get("aborted", []))
        return ok_response(
            rid,
            outcome="failed",
            reason=failure.get("reason"),
            aborted=self._translate([ct.gid]) + cascade,
        )

    async def _entity_op_cross(
        self,
        session: SessionState,
        rid: int,
        ct: _CrossTxn,
        op: str,
        params: dict[str, Any],
    ) -> dict[str, Any]:
        entity = params.get("entity")
        if not isinstance(entity, str) or not entity:
            raise InvalidArgument("missing required parameter 'entity'")
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
        return await self._call(shard, session, op, forwarded, rid)

    async def _commit_cross(
        self, session: SessionState, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        if ct.terminated:
            raise UnknownTransaction(
                f"transaction {ct.gid} already terminated"
            )
        if ct.parent_gid is not None:
            return await self._commit_nested(session, rid, ct)
        shards = sorted(ct.branches)
        participants = {
            str(shard): branch for shard, branch in ct.branches.items()
        }
        # Phase 1: every branch logs a durable PREPARE.  Each prepare
        # runs the full commit gate first (predecessors resolved,
        # reads-from authors terminated), parking until it can promise.
        prepares = await asyncio.gather(
            *(
                self._call(
                    shard,
                    session,
                    "prepare",
                    {
                        "txn": ct.branches[shard],
                        "gid": ct.gid,
                        "participants": participants,
                        "coordinator": ct.coordinator,
                    },
                    rid,
                )
                for shard in shards
            )
        )
        failure = next(
            (
                response
                for response in prepares
                if not response.get("ok")
                or response.get("outcome") != "prepared"
            ),
            None,
        )
        if failure is not None:
            # Presumed abort: no decision record is ever written.
            ct.terminated = True
            self._count("server.cross.aborted")
            await self._abort_all(ct, "2PC prepare failed")
            if failure.get("ok") is False:
                return failure
            return ok_response(
                rid,
                outcome="failed",
                reason=failure.get("reason"),
                aborted=[ct.gid],
            )
        # Phase 2: the coordinator branch's COMMIT record is the global
        # decision — it must be durable before any other branch commits
        # (recovery resolves in-doubt branches by looking *only* at the
        # coordinator branch's terminal state).
        decision = await self._call_retry_busy(
            session=session,
            shard=ct.coordinator,
            op="commit",
            params={"txn": ct.branches[ct.coordinator]},
            request_id=rid,
        )
        if not decision.get("ok") or decision.get("outcome") != "committed":
            ct.terminated = True
            self._count("server.cross.aborted")
            await self._abort_all(ct, "2PC decision commit failed")
            if decision.get("ok") is False:
                return decision
            return ok_response(
                rid,
                outcome="failed",
                reason=decision.get("reason"),
                aborted=[ct.gid],
            )
        ct.terminated = True
        others = await asyncio.gather(
            *(
                self._call_retry_busy(
                    shard,
                    session,
                    "commit",
                    {"txn": ct.branches[shard]},
                    rid,
                )
                for shard in shards
                if shard != ct.coordinator
            )
        )
        for response in others:
            if not response.get("ok") or (
                response.get("outcome") != "committed"
            ):
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

    async def _commit_nested(
        self, session: SessionState, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        """Nested cross commit: relative to the parent, so no 2PC.

        Each branch commits into its parent branch; durability and
        atomicity are the parent's problem when *it* commits.
        """
        shards = sorted(ct.branches)
        responses = await asyncio.gather(
            *(
                self._call(
                    shard,
                    session,
                    "commit",
                    {"txn": ct.branches[shard]},
                    rid,
                )
                for shard in shards
            )
        )
        failure = next(
            (
                response
                for response in responses
                if not response.get("ok")
                or response.get("outcome") != "committed"
            ),
            None,
        )
        ct.terminated = True
        if failure is not None:
            await self._abort_all(ct, "sibling branch failed to commit")
            if failure.get("ok") is False:
                return failure
            return ok_response(
                rid,
                outcome="failed",
                reason=failure.get("reason"),
                aborted=[ct.gid],
            )
        self._forget(ct)
        return ok_response(rid, outcome="committed", shards=shards)

    async def _abort_cross(
        self,
        session: SessionState,
        rid: int,
        ct: _CrossTxn,
        params: dict[str, Any],
    ) -> dict[str, Any]:
        reason = params.get("reason")
        if reason is not None and not isinstance(reason, str):
            raise InvalidArgument("parameter 'reason' must be a string")
        ct.terminated = True
        self._count("server.cross.aborted")
        ct.aborting = True
        responses = await asyncio.gather(
            *(
                self._call(
                    shard,
                    session,
                    "abort",
                    {
                        "txn": branch,
                        "reason": reason or "client requested",
                    },
                    rid,
                )
                for shard, branch in sorted(ct.branches.items())
            )
        )
        own = set(ct.branches.values())
        cascade: list[str] = []
        for response in responses:
            if response.get("ok"):
                cascade.extend(
                    name
                    for name in response.get("cascade", [])
                    if name not in own
                )
        self._forget(ct)
        return ok_response(
            rid, outcome="aborted", cascade=self._translate(cascade)
        )

    async def _view_cross(
        self, session: SessionState, rid: int, ct: _CrossTxn
    ) -> dict[str, Any]:
        shards = sorted(ct.branches)
        responses = await asyncio.gather(
            *(
                self._call(
                    shard, session, "view", {"txn": ct.branches[shard]}, rid
                )
                for shard in shards
            )
        )
        views = {
            str(shard): response.get("view")
            for shard, response in zip(shards, responses)
            if response.get("ok")
        }
        failure = next(
            (r for r in responses if not r.get("ok")), None
        )
        if failure is not None and not views:
            return failure
        return ok_response(rid, view=views, gid=ct.gid)
