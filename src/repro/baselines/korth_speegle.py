"""The Section-5 protocol behind the common scheduler interface.

:class:`KorthSpeegleScheduler` adapts
:class:`~repro.protocol.scheduler.TransactionManager` to the
:class:`~repro.baselines.base.ConcurrencyControl` interface so the
simulator can race it against the classical baselines.

Key behavioural mappings:

* ``begin`` defines a top-level subtransaction (child of the root) with
  a specification derived from the declared plan — the input constraint
  mentions every entity the plan reads (the paper requires this), the
  update set is the plan's write set — then runs validation;
* writes use the split begin/end so the simulator can model the short
  ``W``-lock window;
* commits that must wait for partial-order predecessors surface as
  ``BLOCKED`` and are released when the predecessor commits;
* re-evaluation aborts/re-assignments are propagated through the
  result's ``aborted``/``unblocked`` lists.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..core.predicates import parse_cached
from ..core.transactions import Spec
from ..errors import ProtocolError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..protocol.scheduler import Outcome, TransactionManager, TxnPhase
from ..storage.database import Database
from ..workload import predicate_text
from .base import AccessResult, ConcurrencyControl, PlannedAccess

class KorthSpeegleScheduler(ConcurrencyControl):
    """The paper's protocol as a drivable scheduler."""

    name = "korth-speegle"

    def __init__(self, database: Database) -> None:
        self._db = database
        self._tm = TransactionManager(database)
        self._names: dict[str, str] = {}  # engine id -> protocol name
        self._ids: dict[str, str] = {}  # protocol name -> engine id
        self._commit_waiters: list[str] = []
        self._pending_predecessors: dict[str, list[str]] = {}
        self._tracer: Tracer = NULL_TRACER

    @property
    def manager(self) -> TransactionManager:
        return self._tm

    def set_tracer(self, tracer: Tracer) -> None:
        """Share the simulator's tracer with the protocol layers.

        Protocol-level spans (validate/read/write/commit) are recorded
        under the engine's transaction ids via tracer aliases, so one
        transaction's simulator and protocol spans form one timeline.
        """
        self._tracer = tracer
        self._tm.set_tracer(tracer)
        for name, engine_id in self._ids.items():
            tracer.alias(name, engine_id)

    def set_registry(self, registry: MetricsRegistry | None) -> None:
        """Feed protocol-level histograms (lock-queue depth,
        validation latency) into the run's metrics registry."""
        self._tm.set_registry(registry)

    def _protocol_name(self, txn: str) -> str:
        try:
            return self._names[txn]
        except KeyError:
            raise ProtocolError(f"unknown transaction {txn}") from None

    def _engine_ids(self, protocol_names: Iterable[str]) -> list[str]:
        return [
            self._ids[name] for name in protocol_names if name in self._ids
        ]

    # -- lifecycle ----------------------------------------------------------

    def begin(
        self,
        txn: str,
        plan: Sequence[PlannedAccess] | None = None,
        predecessors: Sequence[str] = (),
    ) -> AccessResult:
        plan = plan or ()
        if txn not in self._names:
            updates = {access.entity for access in plan if access.is_write}
            reads = {access.entity for access in plan if not access.is_write}
            spec = Spec(
                parse_cached(predicate_text(sorted(reads))),
                parse_cached(predicate_text(sorted(updates))),
            )
            predecessor_names = [
                self._names[p] for p in predecessors if p in self._names
            ]
            live_predecessors = [
                p
                for p in predecessor_names
                if self._tm.phase(p)
                not in (TxnPhase.ABORTED,)
            ]
            name = self._tm.define(
                self._tm.root,
                spec,
                updates,
                predecessors=live_predecessors,
            )
            self._names[txn] = name
            self._ids[name] = txn
            self._tracer.alias(name, txn)
        name = self._names[txn]
        step = self._tm.validate(name)
        return self._convert(step)

    def read(self, txn: str, entity: str) -> AccessResult:
        step = self._tm.read(self._protocol_name(txn), entity)
        return self._convert(step)

    def write(self, txn: str, entity: str, value: int) -> AccessResult:
        name = self._protocol_name(txn)
        self._tm.begin_write(name, entity)
        step = self._tm.end_write(name, entity, value)
        return self._convert(step)

    def supports_split_writes(self) -> bool:
        return True

    def write_begin(self, txn: str, entity: str) -> AccessResult:
        step = self._tm.begin_write(self._protocol_name(txn), entity)
        return self._convert(step)

    def write_end(self, txn: str, entity: str, value: int) -> AccessResult:
        step = self._tm.end_write(self._protocol_name(txn), entity, value)
        return self._convert(step)

    def commit(self, txn: str) -> AccessResult:
        name = self._protocol_name(txn)
        ok, reason = self._tm.can_commit(name)
        if not ok and "predecessor" in reason:
            if txn not in self._commit_waiters:
                self._commit_waiters.append(txn)
            return AccessResult.blocked(reason)
        if not ok:
            inner = self._tm.abort(name, reason=reason)
            result = AccessResult.abort(reason)
            result.aborted = self._engine_ids(
                n for n in inner if n != name
            )
            return result
        step = self._tm.commit(name)
        result = self._convert(step)
        result.unblocked.extend(self._ripe_commit_waiters())
        return result

    def abort(self, txn: str, reason: str = "requested") -> AccessResult:
        name = self._names.get(txn)
        result = AccessResult(status=AccessResult.ok().status, reason=reason)
        if name is None:
            return result
        cascade = self._tm.abort(name, reason=reason)
        result.aborted = self._engine_ids(n for n in cascade if n != name)
        result.unblocked = self._ripe_commit_waiters()
        if txn in self._commit_waiters:
            self._commit_waiters.remove(txn)
        return result

    def _ripe_commit_waiters(self) -> list[str]:
        """Commit-blocked transactions whose predecessors are done."""
        ripe: list[str] = []
        for waiter in list(self._commit_waiters):
            name = self._names.get(waiter)
            if name is None or self._tm.record(name).terminated:
                self._commit_waiters.remove(waiter)
                continue
            ok, reason = self._tm.can_commit(name)
            if ok or "predecessor" not in (reason or ""):
                self._commit_waiters.remove(waiter)
                ripe.append(waiter)
        return ripe

    # -- conversion ---------------------------------------------------------------

    def _convert(self, step) -> AccessResult:
        if step.outcome is Outcome.OK:
            result = AccessResult.ok(step.value)
        elif step.outcome is Outcome.BLOCKED:
            result = AccessResult.blocked(step.blocked_on or "?")
        else:
            result = AccessResult.abort(step.reason or "protocol failure")
        result.aborted = self._engine_ids(step.aborted)
        result.unblocked = self._engine_ids(step.unblocked)
        result.unblocked.extend(
            waiter
            for waiter in self._ripe_commit_waiters()
            if waiter not in result.unblocked
        )
        return result
