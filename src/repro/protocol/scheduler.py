"""The correct-execution transaction manager (Section 5).

:class:`TransactionManager` drives nested transactions through the four
phases of Section 5.1 — definition, validation, execution, termination
— admitting exactly the parent-based correct executions of the model
(Lemma 4 / Theorem 2):

* **definition** (:meth:`define`) — register a subtransaction with its
  specification, declared update set, and place in the parent's partial
  order; cycle-checks the order and prohibits placement before a
  committed reader (the paper's chosen alternative to undoing commits);
* **validation** (:meth:`validate`) — take ``R_v`` locks on the input
  set, compute D-sets, and select a satisfying version assignment;
* **execution** (:meth:`read`, :meth:`begin_write` /
  :meth:`end_write`) — reads upgrade ``R_v → R`` and may block briefly
  on an in-flight write; writes always proceed and create new versions;
  every completed write triggers Figure 4's re-evaluation, which aborts
  invalidated readers and silently re-assigns still-validating ones;
* **termination** (:meth:`commit`, :meth:`abort`) — commit requires all
  partial-order predecessors committed, all children terminated, and
  the output condition satisfied on the transaction's world view;
  aborts expunge the transaction's versions and cascade to readers.

Every public call is **decide → record → apply**: the checks, locks,
D-sets, selection and Figure 4 read the state and touch only volatile
things (lock table, spans); the outcome is one record, appended
to the write-ahead log when one is attached; and the record is fired
through :meth:`repro.protocol.state.ProtocolState.apply`, the only code
that changes a transaction record or the version store.

The manager is synchronous and single-threaded: blocking is represented
by ``BLOCKED`` outcomes plus lock-queue drainage on write completion,
which the discrete-event simulator (:mod:`repro.sim`) turns into
waiting time.  Writes never block and validation blocks only on
in-flight write operations, so **the protocol cannot deadlock** — one
of its central practical advantages over two-phase locking for
long-duration transactions.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator

from ..core.naming import TxnName
from ..core.orders import PartialOrder
from ..core.transactions import Spec
from ..errors import LockProtocolError, ProtocolError, TransactionAborted
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer
from ..storage.database import Database
from ..storage.version_store import Version
from .locks import LockMode, LockOutcome, LockTable
from .reeval import ReevalDecision, figure4_decision
from .state import (
    OP_ABORT,
    OP_COMMIT,
    OP_DEFINE,
    OP_PREPARE,
    OP_READ,
    OP_REASSIGN,
    OP_UNDO_COMMIT,
    OP_VALIDATE,
    OP_WRITE,
    ProtocolState,
    TxnPhase,
    TxnRecord,
    encode,
    values,
    version_ref,
)
from .validation import DSet, select_versions


class Outcome(enum.Enum):
    """Result of a phase step that can block or fail."""

    OK = "ok"
    BLOCKED = "blocked"
    FAILED = "failed"


@dataclass(slots=True)
class StepResult:
    """Outcome of one protocol step.

    ``blocked_on`` names the entity whose in-flight write blocks the
    step; ``value`` carries a read's result; ``aborted`` /
    ``reassigned`` list the side effects of re-evaluation;
    ``unblocked`` lists transactions whose queued requests were granted
    by this step (the simulator resumes them).
    """

    outcome: Outcome
    value: int | None = None
    blocked_on: str | None = None
    aborted: list[str] = field(default_factory=list)
    reassigned: list[str] = field(default_factory=list)
    unblocked: list[str] = field(default_factory=list)
    reason: str | None = None


def step(method):
    """Mark a public manager call as one protocol step.

    Steps nest (a failed validation aborts; a write re-evaluates and
    aborts); :meth:`TransactionManager._after_step` runs once the
    outermost one has returned normally.
    """

    @functools.wraps(method)
    def stepped(self, *args, **kwargs):
        self._depth += 1
        try:
            result = method(self, *args, **kwargs)
        finally:
            self._depth -= 1
        if not self._depth:
            self._after_step()
        return result

    return stepped


class TransactionManager:
    """The Section-5 protocol over a multi-version database."""

    #: Where step records go besides the state: anything with the
    #: write-ahead log's ``append(op, txn, data)``.
    _sink: Any = None
    _depth = 0

    def __init__(
        self,
        database: "Database | ProtocolState",
        root_spec: Spec | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        strict: bool = False,
        root_name: str | None = None,
    ) -> None:
        """``database`` may instead be an existing :class:`ProtocolState`
        (recovery hands over the one it rebuilt): the manager serves it
        as found — root, names and child counters continue, so no name
        is ever reused — and ``root_spec``/``root_name`` are its own."""
        state = (
            database
            if isinstance(database, ProtocolState)
            else ProtocolState.fresh(database, root_spec, root_name)
        )
        self._state = state
        self._db = state.database
        self._records = state.records
        self._active = state.active
        self._strict = strict
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._registry = registry
        self._locks = LockTable(tracer=self._tracer, registry=registry)
        self._write_spans: dict[tuple[str, str], object] = {}

    # -- observability -------------------------------------------------------

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer after construction (simulator wiring)."""
        self._tracer = tracer
        self._locks.set_tracer(tracer)

    def set_registry(self, registry: MetricsRegistry | None) -> None:
        """Attach a metrics registry (lock-queue depths, validation
        latency) after construction."""
        self._registry = registry
        self._locks.set_registry(registry)

    def _select(
        self,
        txn: str,
        d_sets: dict[str, DSet],
        constraint,
        pinned: dict[str, Version] | None = None,
    ) -> dict[str, Version] | None:
        """§5.1 part 2 on behalf of ``txn``: its wall-clock cost goes
        to the registry's ``validation_latency_us`` histogram, and one
        ``validate.select`` event carries the candidate-space size (no
        timing, so a recorded trace repeats byte for byte)."""
        started = time.perf_counter()
        assignment = select_versions(d_sets, constraint, pinned)
        if self._registry is not None:
            self._registry.histogram("validation_latency_us").observe(
                (time.perf_counter() - started) * 1e6
            )
        if self._tracer.enabled:
            self._tracer.event(
                "validate.select",
                txn,
                items=len(d_sets),
                candidates=sum(
                    len(d_set.candidates) for d_set in d_sets.values()
                ),
                satisfiable=assignment is not None,
            )
        return assignment

    # -- step records --------------------------------------------------------

    def _fire(self, op: str, txn: str, data: dict[str, Any]) -> None:
        """Record one decided step, then apply it."""
        lsn = None
        if self._sink is not None:
            lsn = self._sink.append(op, txn, encode(op, data)).lsn
        self._state.apply(op, txn, data, lsn)

    def _after_step(self) -> None:
        """Hook: the outermost step has returned."""

    # -- the sink, as callers see it -------------------------------------------

    @property
    def wal(self) -> Any:
        """The write-ahead log step records go to (``None``: in memory)."""
        return self._sink

    def commit_lsn_of(self, txn: str) -> int | None:
        """The WAL LSN of ``txn``'s commit record, if it committed."""
        record = self._records.get(txn)
        return record.commit_lsn if record is not None else None

    def maybe_flush(self) -> int:
        """Group-commit tick: fsync if the flush deadline passed."""
        if self._sink is None or self._sink.closed:
            return 0
        return self._sink.maybe_flush()

    def flush(self) -> int:
        if self._sink is None or self._sink.closed:
            return 0
        return self._sink.flush()

    def close(self, checkpoint: bool = True) -> None:
        """Shut down; in memory there is nothing to flush or checkpoint
        (the WAL-backed manager overrides this)."""

    # -- accessors -----------------------------------------------------------

    @property
    def root(self) -> str:
        return self._state.root

    @property
    def state(self) -> ProtocolState:
        """The protocol state this manager decides over."""
        return self._state

    @property
    def database(self) -> Database:
        return self._db

    @property
    def locks(self) -> LockTable:
        return self._locks

    @property
    def strict(self) -> bool:
        """Whether the manager runs in strict (ST-producing) mode.

        Strict mode trades the protocol's freedom to read and
        overwrite uncommitted versions for strictness of the resulting
        history: validation only assigns versions with relatively
        committed authors, and reads/writes block while an uncommitted
        sibling's version of the item is live.  This makes recovered
        histories ST at the cost of reintroducing blocking (and hence
        potential deadlock, which the server resolves by timeout).
        """
        return self._strict

    def iter_records(self) -> Iterator[TxnRecord]:
        """All transaction records, including the root (§5 bookkeeping)."""
        return iter(self._records.values())

    def record(self, txn: str) -> TxnRecord:
        try:
            return self._records[txn]
        except KeyError:
            raise ProtocolError(f"unknown transaction {txn}") from None

    def phase(self, txn: str) -> TxnPhase:
        return self.record(txn).phase

    def children_of(self, txn: str) -> tuple[str, ...]:
        return tuple(self.record(txn).children)

    def assigned_versions(self, txn: str) -> dict[str, Version]:
        return dict(self.record(txn).assigned)

    # -- phase 1: definition -----------------------------------------------------

    @step
    def define(
        self,
        parent: str,
        spec: Spec,
        update_set: Iterable[str],
        predecessors: Iterable[str] = (),
        successors: Iterable[str] = (),
        undo_committed_successors: bool = False,
    ) -> str:
        """Define a subtransaction (§5.1, transaction definition phase).

        ``predecessors``/``successors`` are existing siblings the new
        transaction must follow/precede in the parent's partial order.
        Raises :class:`ProtocolError` when the new transaction is
        placed before a *committed* sibling whose input set it updates
        — unless ``undo_committed_successors`` is set, in which case the
        paper's alternative option is taken: the committed successor's
        relative commit is undone (see :meth:`undo_relative_commit`)
        and the definition proceeds.  Also raises when the order would
        become cyclic or put a reader before the sibling it reads from:
        a sibling before the one whose version it holds
        (:meth:`_refuse_order`), or the new transaction before the
        committed sibling whose release the parent's world holds for
        any item (the new transaction's subtree may read it).
        """
        parent_record = self.record(parent)
        if parent_record.terminated:
            raise ProtocolError(f"parent {parent} has terminated")
        if parent_record.did_data_access or self._locks.writing(parent):
            raise ProtocolError(
                f"{parent} performs data accesses and so cannot nest "
                "subtransactions (a transaction does one or the other)"
            )
        updates = frozenset(update_set)
        unknown = updates - set(self._db.schema.names)
        unknown |= spec.input_constraint.entities() - set(
            self._db.schema.names
        )
        if unknown:
            raise ProtocolError(f"unknown entities {sorted(unknown)}")

        name = str(
            TxnName.parse(parent).child(parent_record.child_counter)
        )
        preds = list(predecessors)
        succs = list(successors)
        for sibling in preds + succs:
            if sibling not in parent_record.children:
                raise ProtocolError(
                    f"{sibling} is not an existing child of {parent}"
                )
        # Only a successor can close a cycle or order a reader before
        # the sibling it reads from.  Every check runs before anything
        # is undone, so a refused definition changes nothing.
        following = (
            self._refuse_order(parent, name, preds, succs) if succs else set()
        )
        undo: list[str] = []
        for successor in succs:
            successor_record = self.record(successor)
            clash = updates & successor_record.input_set
            if successor_record.phase is TxnPhase.COMMITTED and clash:
                if not undo_committed_successors:
                    raise ProtocolError(
                        f"cannot place {name} before committed "
                        f"{successor}: it updates items {sorted(clash)} "
                        "that the committed transaction read"
                    )
                undo.append(successor)
        # Rule (a) reads the world as it stands once ``undo`` is undone.
        # It covers every item, not just the input set: a child nested
        # under the new transaction reads any item through its parent.
        world = parent_record.world_without(undo) if undo else parent_record.world
        for item in sorted(world):
            author = self._sibling_ancestor(world[item].author, parent)
            if author in following:
                raise ProtocolError(
                    f"cannot place {name} before committed {author}: "
                    f"{name} would read {item} from its release"
                )
        # The parent is live, so each relative commit can be undone.
        for successor in undo:
            self.undo_relative_commit(successor)

        if self._tracer.enabled:
            self._tracer.event(
                "define",
                name,
                parent_txn=parent,
                updates=sorted(updates),
                predecessors=sorted(preds),
                successors=sorted(succs),
            )
        self._fire(
            OP_DEFINE,
            name,
            {
                "parent": parent,
                "update_set": updates,
                "predecessors": preds,
                "successors": succs,
                "spec": spec,
            },
        )
        return name

    def _refuse_order(
        self, parent: str, name: str, preds: list[str], succs: list[str]
    ) -> set[str]:
        """The siblings that would follow ``name``, placed after
        ``preds`` and before ``succs``; refuse the placement if ``P`` would turn
        cyclic, or if a sibling that would precede ``name`` holds a
        version written by one that would follow it (Lemma 4: a reader
        before the sibling it reads from).  Authors count at the
        parent's level (a write in a subtree is its root's)."""
        index = self._state.index(parent)
        above, below = index.around(preds, succs)
        if above & below:
            raise ProtocolError(
                f"defining {name} would make {parent}'s partial order "
                "cyclic: it would both follow and precede "
                f"{index.names_from(above & below)[0]}"
            )
        following = set(index.names_from(below))
        for reader in index.names_from(above):
            for item, version in self._subtree_reads(reader):
                author = self._sibling_ancestor(version.author, parent)
                if author in following:
                    raise ProtocolError(
                        f"cannot order {reader} before {author}: {reader} "
                        f"was assigned {author}'s version of {item}"
                    )
        return following

    # -- phase 2: validation ----------------------------------------------------

    @step
    def validate(self, txn: str) -> StepResult:
        """Acquire ``R_v`` locks and assign versions (§5.1 part 1+2).

        Returns ``BLOCKED`` if some input item is under an in-flight
        write (retry after the write completes); ``FAILED`` (and aborts
        the transaction) when no version assignment can satisfy the
        input constraint.
        """
        record = self.record(txn)
        if record.phase is not TxnPhase.DEFINED:
            raise ProtocolError(
                f"{txn} cannot validate from phase {record.phase.value}"
            )
        tracer = self._tracer
        span = (
            tracer.start("validate", txn, items=sorted(record.input_set))
            if tracer.enabled
            else None
        )
        for item in sorted(record.input_set):
            if self._locks.holds(txn, item, LockMode.RV):
                continue
            outcome = self._locks.request(txn, item, LockMode.RV)
            if outcome is LockOutcome.BLOCKED:
                if span is not None:
                    tracer.end(span, outcome="blocked", blocked_on=item)
                return StepResult(Outcome.BLOCKED, blocked_on=item)

        d_sets = self._compute_d_sets(record)
        if self._strict:
            blocked_item: str | None = None
            strict_sets: dict[str, DSet] = {}
            for item, d_set in d_sets.items():
                kept = tuple(
                    version
                    for version in d_set.candidates
                    if self._strict_visible(txn, version)
                )
                if not kept:
                    blocked_item = item
                    break
                strict_sets[item] = replace(d_set, candidates=kept)
            if blocked_item is not None:
                # Every candidate for this item is an uncommitted
                # sibling's version: wait for the author to terminate
                # rather than read dirty data (strictness).
                if span is not None:
                    tracer.end(
                        span, outcome="blocked", blocked_on=blocked_item
                    )
                return StepResult(
                    Outcome.BLOCKED, blocked_on=blocked_item
                )
            d_sets = strict_sets
        assignment = self._select(
            txn, d_sets, record.spec.input_constraint
        )
        if assignment is None:
            if span is not None:
                tracer.end(
                    span,
                    outcome="failed",
                    reason="input constraint unsatisfiable",
                )
            cascade = self.abort(
                txn, reason="input constraint unsatisfiable"
            )
            return StepResult(
                Outcome.FAILED,
                reason="input constraint unsatisfiable",
                aborted=[name for name in cascade if name != txn],
            )
        if span is not None:
            tracer.end(
                span,
                outcome="ok",
                assigned={
                    item: str(version)
                    for item, version in sorted(assignment.items())
                },
            )
        self._fire(OP_VALIDATE, txn, {"assigned": assignment})
        return StepResult(Outcome.OK)

    def _compute_d_sets(self, record: TxnRecord) -> dict[str, DSet]:
        """D-sets for every input item (§5.1 part 1).

        Answers the three exclusion rules from the parent's
        :class:`~repro.protocol.fastpath.ParentIndex`, which the state
        keeps current; :mod:`repro.reference.validation` holds the
        rule-by-rule transcription it must match — the same members,
        and the same candidates up to order (the differential property
        tests run both).  Members stay bitmasks: nothing here turns
        them into names.
        """
        assert record.parent is not None
        parent = record.parent
        index = self._state.index(parent)
        ids = index.ids
        store = self._db.store
        d_sets: dict[str, DSet] = {}
        for item in sorted(record.input_set):
            members_mask, pred_mask = index.d_members(record.name, item)
            parent_version = self._parent_world_version(parent, item)
            # One walk over the item's versions, creation order, kept
            # when the author's bit is wanted (``t_0`` has no bit).
            wanted = pred_mask if pred_mask else members_mask
            candidates: list[Version] = []
            if wanted:
                for version in store.versions(item):
                    author_id = ids.get(version.author)
                    if author_id is not None and wanted >> author_id & 1:
                        candidates.append(version)
            used_parent = False
            if not pred_mask or not candidates:
                candidates.append(parent_version)
                used_parent = True
            d_sets[item] = DSet(
                item=item,
                members=members_mask,
                predecessors=pred_mask,
                candidates=tuple(candidates),
                used_parent_version=used_parent,
            )
        return d_sets

    def _parent_world_version(self, parent: str, item: str) -> Version:
        """The version of one item the parent offers its children.

        The last release of a committed child, else the parent's own
        assigned version, else what the grandparent offers: a parent's
        version state covers every entity (docs/paper_map.md).
        """
        record = self.record(parent)
        version = record.world.get(item) or record.assigned.get(item)
        if version is not None:
            return version
        if record.parent is None:
            return self._db.store.initial(item)
        return self._parent_world_version(record.parent, item)

    # -- phase 3: execution --------------------------------------------------------

    @step
    def read(self, txn: str, entity: str) -> StepResult:
        """A read request: upgrade ``R_v`` to ``R`` and serve the
        assigned version (§5.1, execution phase).

        Rejects (raises) reads of items outside the validated input
        set; returns ``BLOCKED`` while another transaction's write is
        in flight on the entity.
        """
        record = self.record(txn)
        self._require_active(record)
        if record.phase is not TxnPhase.VALIDATED:
            raise ProtocolError(f"{txn} must validate before reading")
        if self._strict:
            assigned = record.assigned.get(entity)
            if assigned is not None and not self._strict_visible(
                txn, assigned
            ):
                return StepResult(Outcome.BLOCKED, blocked_on=entity)
        if self._locks.holds(txn, entity, LockMode.R):
            pass  # repeated read: lock already held
        else:
            outcome = self._locks.upgrade_rv_to_r(txn, entity)
            if outcome is LockOutcome.BLOCKED:
                return StepResult(Outcome.BLOCKED, blocked_on=entity)
        version = record.assigned.get(entity)
        if version is None:
            raise LockProtocolError(
                f"{txn}: no version assigned for {entity}"
            )
        if self._tracer.enabled:
            self._tracer.event(
                "read",
                txn,
                entity=entity,
                version=str(version),
                value=version.value,
            )
        self._fire(
            OP_READ, txn, {"entity": entity, "version": version_ref(version)}
        )
        return StepResult(Outcome.OK, value=version.value)

    def begin_write(self, txn: str, entity: str) -> StepResult:
        """Take the ``W`` lock — always granted (Figure 3)."""
        record = self.record(txn)
        self._require_active(record)
        if record.phase is not TxnPhase.VALIDATED:
            raise ProtocolError(f"{txn} must validate before writing")
        if entity not in record.update_set:
            raise ProtocolError(
                f"{txn} did not declare {entity} in its update set"
            )
        if self._strict:
            blocker = self._strict_write_blocker(txn, entity)
            if blocker is not None:
                # Strictness also forbids overwriting uncommitted data:
                # wait for the earlier writer to terminate.
                return StepResult(Outcome.BLOCKED, blocked_on=entity)
        outcome = self._locks.request(txn, entity, LockMode.W)
        assert outcome is LockOutcome.GRANTED, "writes never block"
        if self._tracer.enabled:
            self._write_spans[(txn, entity)] = self._tracer.start(
                "write", txn, entity=entity
            )
        return StepResult(Outcome.OK)

    @step
    def end_write(self, txn: str, entity: str, value: int) -> StepResult:
        """Complete a write: new version, release ``W``, re-evaluate.

        Figure 4 runs against every sibling holding a read-side lock,
        and again (per the compatibility matrix's "re-eval" entries)
        for every reader the lock release unblocks.
        """
        record = self.record(txn)
        if not self._locks.holds(txn, entity, LockMode.W):
            raise ProtocolError(f"{txn} has no write in flight on {entity}")
        # Write-ahead: a rejected value is never recorded, and the
        # record carries the stamp the store is about to issue, so any
        # Figure-4 abort/reassign records land after their cause.
        self._db.schema[entity].validate(value)
        self._fire(
            OP_WRITE,
            txn,
            {
                "entity": entity,
                "value": value,
                "sequence": self._db.store.sequence_watermark,
            },
        )
        version = record.writes[entity]
        write_span = self._write_spans.pop((txn, entity), None)
        if write_span is not None:
            self._tracer.end(
                write_span, value=value, version=str(version)
            )

        result = StepResult(Outcome.OK)
        # Re-eval current read-side holders first (Figure 4 proper)…
        holders = sorted(self._locks.read_side_holders(entity) - {txn})
        self._reeval(txn, entity, version, holders, result)
        # …then release the write lock and re-eval the unblocked.
        granted = self._locks.release(txn, entity, LockMode.W)
        newly = sorted({request.txn for request in granted} - {txn})
        result.unblocked.extend(
            t for t in newly if t not in result.aborted
        )
        self._reeval(
            txn,
            entity,
            version,
            [t for t in newly if t not in result.aborted],
            result,
        )
        return result

    def write(self, txn: str, entity: str, value: int) -> StepResult:
        """An instantaneous write (begin + end in one step)."""
        self.begin_write(txn, entity)
        return self.end_write(txn, entity, value)

    def _reeval(
        self,
        writer: str,
        entity: str,
        version: Version,
        holders: Iterable[str],
        result: StepResult,
    ) -> None:
        writer_record = self.record(writer)
        if writer_record.parent is None:
            return
        index = self._state.index(writer_record.parent)
        for holder in holders:
            if holder in result.aborted:
                continue
            holder_record = self._records.get(holder)
            if holder_record is None or holder_record.terminated:
                continue
            assigned = holder_record.assigned.get(entity)
            author = assigned.author if assigned is not None else None
            decision = figure4_decision(
                writer,
                holder,
                author,
                index,
                holder_has_read=entity in holder_record.read_items,
            )
            if decision is ReevalDecision.NONE:
                continue
            if self._tracer.enabled:
                self._tracer.event(
                    "reeval",
                    holder,
                    writer=writer,
                    entity=entity,
                    decision=decision.value,
                )
            if decision is ReevalDecision.ABORT:
                reason = (
                    f"partial-order invalidation: read {entity} "
                    f"before predecessor {writer} wrote it"
                )
            elif self._reassign(holder_record, entity, version):
                result.reassigned.append(holder)
                continue
            else:
                reason = (
                    "re-assignment failed: input constraint "
                    f"unsatisfiable with new {entity} version"
                )
            result.aborted.extend(
                name
                for name in self.abort(holder, reason=reason)
                if name not in result.aborted
            )

    def _reassign(
        self, record: TxnRecord, entity: str, new_version: Version
    ) -> bool:
        """Figure 4's re-assign: redo selection with the item pinned.

        Any version assignment may change as long as the transaction
        has not read the item; items already read stay pinned to the
        versions actually read.
        """
        assignment = self._reselect(record, {entity: new_version})
        if assignment is None:
            return False
        if self._tracer.enabled:
            self._tracer.event(
                "reassign",
                record.name,
                entity=entity,
                version=str(new_version),
            )
        self._fire(OP_REASSIGN, record.name, {"assigned": assignment})
        return True

    def _reselect(
        self, record: TxnRecord, pinned: dict[str, Version]
    ) -> dict[str, Version] | None:
        """Redo selection over fresh D-sets, reads staying pinned."""
        for item in record.read_items:
            if item in record.assigned:
                pinned[item] = record.assigned[item]
        return self._select(
            record.name,
            self._compute_d_sets(record),
            record.spec.input_constraint,
            pinned,
        )

    def _strict_visible(self, txn: str, version: Version) -> bool:
        """Is a version safe to expose to ``txn`` under strict mode?

        Safe means its author has relatively committed (or it is the
        initial ``t_0`` version, or the reader's own write).  Authors
        without a live record — possible only for versions restored
        from a checkpoint, whose authors had committed pre-crash — are
        treated as committed.
        """
        author = version.author
        if author is None or author == txn:
            return True
        author_record = self._records.get(author)
        if author_record is None:
            return True
        return author_record.phase is TxnPhase.COMMITTED

    def _strict_write_blocker(self, txn: str, entity: str) -> str | None:
        """The author of a live uncommitted version of ``entity``, if any."""
        for version in self._db.store.versions(entity):
            if not self._strict_visible(txn, version):
                return version.author
        return None

    def _require_active(self, record: TxnRecord) -> None:
        if record.phase is TxnPhase.ABORTED:
            raise TransactionAborted(record.name, "already aborted")
        if record.phase is TxnPhase.COMMITTED:
            raise ProtocolError(f"{record.name} already committed")
        if record.children:
            raise ProtocolError(
                f"{record.name} nests subtransactions and so cannot "
                "perform data accesses"
            )

    # -- phase 4: termination ----------------------------------------------------

    def view(self, txn: str) -> dict[str, int]:
        """The transaction's world view over all entities.

        Own writes shadow the versions committed children released,
        which shadow the assigned input versions, which shadow the
        parent's view.
        """
        record = self.record(txn)
        base = {} if record.parent is None else self.view(record.parent)
        for versions in (record.assigned, record.world, record.writes):
            base.update(values(versions))
        return base

    @step
    def prepare(self, txn: str, data: dict[str, Any]) -> int | None:
        """Log a durable 2PC phase-1 promise for ``txn``.

        ``data`` must carry ``gid``, ``participants`` (branch names
        keyed by shard id as strings), and ``coordinator`` (the shard
        whose branch's commit record is the decision).  The record is
        fsynced before returning — phase 2 must never start on a
        promise that only exists in the OS page cache.  Returns the
        record's LSN (``None`` without a WAL).
        """
        record = self.record(txn)  # raises ProtocolError on unknown
        if record.terminated or self._sink is None:
            return None
        self._fire(OP_PREPARE, txn, dict(data))
        self.flush()
        return self._sink.last_lsn

    def can_commit(self, txn: str) -> tuple[bool, str]:
        """Check the three commit rules; returns (ok, reason)."""
        record = self.record(txn)
        if record.terminated:
            return False, f"already {record.phase.value}"
        if self._locks.writing(txn):
            return False, "write in flight"
        if record.parent is not None:
            index = self._state.index(record.parent)
            if index.pred_masks[index.ids[txn]]:
                # Only a live predecessor blocks: an aborted one can
                # never commit, and waiting on it would deadlock the
                # successor.  Its effects are gone (versions expunged,
                # readers cascaded), so the ordering obligation is
                # vacuous.  The live set is bounded by concurrency,
                # the predecessor closure is not.
                waiting = [
                    name
                    for name in self._active
                    if index.precedes(name, txn)
                ]
                if waiting:
                    return (
                        False,
                        f"predecessor {min(waiting)} not committed",
                    )
        for child in record.children:
            if not self.record(child).terminated:
                return False, f"subtransaction {child} not terminated"
        view = self.view(txn)
        satisfied = record.spec.output_condition.evaluate(view)
        if self._tracer.enabled:
            self._tracer.event(
                "predicate.eval",
                txn,
                predicate=str(record.spec.output_condition),
                role="output-condition",
                satisfied=satisfied,
            )
        if not satisfied:
            return False, "output condition unsatisfied"
        return True, "ok"

    def unstable_reads_from(self, txn: str) -> str | None:
        """First live transaction this commit's input depends on.

        A top-level commit is only crash-durable if every version in
        its (and its committed descendants') input assignment was
        authored by a transaction whose whole chain up to top level has
        committed: recovery expunges versions authored by transactions
        in flight at the crash and cascade-aborts their committed
        readers, so acknowledging such a commit would promise
        durability the log cannot keep.  Returns the name of the first
        dependency that has not terminated (the caller should wait for
        it), or ``None`` when every reads-from edge is stable.

        The durability boundary is a commit directly under the root:
        the root transaction never commits, so its children's commits
        are what recovery treats as durable.  Deeper (relative)
        commits return ``None`` — they carry no durability promise,
        and gating them on siblings would deadlock the hierarchy.  An
        aborted author is treated as stable: its versions are
        expunged and the abort cascade owns the reader's fate.
        Read-only.
        """
        record = self.record(txn)
        if record.parent is None:
            return None  # a root never carries a durability promise
        if self.record(record.parent).parent is not None:
            return None  # relative commit below the boundary
        subtree = {txn}
        stack = [record]
        while stack:
            node = stack.pop()
            for child in node.children:
                subtree.add(child)
                stack.append(self.record(child))
        stack = [record]
        while stack:
            node = stack.pop()
            for child in node.children:
                child_record = self.record(child)
                if child_record.phase is TxnPhase.COMMITTED:
                    stack.append(child_record)
            for version in node.assigned.values():
                author = version.author
                while author is not None and author not in subtree:
                    author_record = self._records.get(author)
                    if author_record is None:
                        # Restored from a checkpoint: the author
                        # committed before the previous crash.
                        break
                    if author_record.parent is None:
                        # Reached the root: the chain below it has
                        # committed, which is as durable as it gets.
                        break
                    if author_record.phase is TxnPhase.ABORTED:
                        break
                    if author_record.phase is not TxnPhase.COMMITTED:
                        return author
                    # Relatively committed: durable only once the
                    # chain reaches a commit directly under the root.
                    author = author_record.parent
        return None

    @step
    def commit(self, txn: str) -> StepResult:
        """Commit (relative to the parent): release versions upward.

        Returns ``FAILED`` with the blocking rule when the §5.1 commit
        conditions do not hold — committing is only legal once every
        predecessor has committed, every child has terminated, and the
        output condition holds on the transaction's world view.
        """
        tracer = self._tracer
        span = tracer.start("commit", txn) if tracer.enabled else None
        ok, reason = self.can_commit(txn)
        if not ok:
            if span is not None:
                tracer.end(span, outcome="failed", reason=reason)
            return StepResult(Outcome.FAILED, reason=reason)
        if span is not None:
            tracer.end(span, outcome="committed")
        # The record releases this transaction's versions (its writes
        # over its children's releases) into the parent's world view.
        self._fire(
            OP_COMMIT, txn, {"released": values(self.record(txn).released())}
        )
        unblocked = self._locks.release_all(txn)
        result = StepResult(Outcome.OK)
        result.unblocked.extend(
            sorted({request.txn for request in unblocked})
        )
        return result

    @step
    def undo_relative_commit(self, txn: str) -> StepResult:
        """Undo a commit that is still only relative to the parent.

        Section 5.1 notes a commit "is only relative to the parent",
        so it can be undone as long as the parent has not itself
        committed — the alternative to prohibiting placement of new
        predecessors before committed readers.  The transaction's
        released writes are withdrawn from the parent's world view and
        it returns to the VALIDATED phase, from which it can re-commit
        (or be aborted).  Data accesses after an undo are not
        supported — the read-side locks were dropped at commit time.
        """
        record = self.record(txn)
        if record.phase is not TxnPhase.COMMITTED:
            return StepResult(
                Outcome.FAILED,
                reason=f"{txn} is not committed",
            )
        if record.parent is None:
            return StepResult(
                Outcome.FAILED, reason="the root's commit is absolute"
            )
        parent_record = self.record(record.parent)
        if parent_record.phase is TxnPhase.COMMITTED:
            return StepResult(
                Outcome.FAILED,
                reason=(
                    f"{record.parent} has committed; {txn}'s commit is "
                    "no longer relative"
                ),
            )
        if self._tracer.enabled:
            self._tracer.event("undo-commit", txn)
        self._fire(OP_UNDO_COMMIT, txn, {})
        # Re-acquire read-side locks so Figure-4 re-evaluation sees the
        # transaction again: a predecessor placed after the undo that
        # writes an item this transaction already *read* must be able
        # to detect the partial-order invalidation and abort it.
        for item in sorted(record.input_set):
            if not self._locks.holds(txn, item, LockMode.RV):
                self._locks.request(txn, item, LockMode.RV)
            if item in record.read_items and not self._locks.holds(
                txn, item, LockMode.R
            ):
                self._locks.request(txn, item, LockMode.R)
        return StepResult(Outcome.OK)

    @step
    def abort(self, txn: str, reason: str = "requested") -> list[str]:
        """Abort a transaction (and its subtree), cascading.

        Expunges every version the subtree authored; any *sibling*
        transaction whose assignment referenced an expunged version is
        re-assigned (if it has not read the item) or aborted in
        cascade.  Returns all transaction names aborted, most-derived
        first.  A committed transaction can still be aborted while its
        commit is only relative to a live, nested parent (its release
        is withdrawn from the parent's world); once it has committed
        under the root, or its parent has committed, it is too late.
        Its children's commits are relative to it, so every child not
        already aborted aborts with it, committed ones included.

        Each decision is recorded as it is made: the children's aborts
        first (each a step of its own), then this transaction's ABORT,
        which names only itself and its own versions, then the cascade,
        where every victim's abort is again its own step and every
        re-selected survivor whose assignment changed gets a REASSIGN.
        """
        record = self.record(txn)
        if record.phase is TxnPhase.ABORTED:
            return []
        if record.phase is TxnPhase.COMMITTED and record.parent is not None:
            parent_record = self.record(record.parent)
            if parent_record.parent is None:
                # The durability boundary :meth:`unstable_reads_from`
                # names: a commit directly under the root was promised.
                raise ProtocolError(
                    f"{txn} is committed under the root; too late to abort"
                )
            if parent_record.phase is TxnPhase.COMMITTED:
                raise ProtocolError(
                    f"{txn} is committed beyond its parent; too late to abort"
                )
        return self._abort(record, reason)

    def _abort(self, record: TxnRecord, reason: str) -> list[str]:
        """:meth:`abort` past its too-late check, which a child aborting
        with its parent does not take."""
        txn = record.name
        aborted: list[str] = []
        for child in list(record.children):
            child_record = self.record(child)
            if child_record.phase is not TxnPhase.ABORTED:
                aborted.extend(
                    self._abort(child_record, f"parent {txn} aborted")
                )
        if self._tracer.enabled:
            for entity in self._locks.writing(txn):
                write_span = self._write_spans.pop((txn, entity), None)
                if write_span is not None:
                    self._tracer.end(write_span, outcome="aborted")
        store = self._db.store
        # Entity-major, creation order within an entity.
        rank = self._db.schema.names.index
        own = [
            [entity, version.sequence]
            for entity in sorted(record.writes, key=rank)
            for version in store.versions(entity)
            if version.author == txn
        ]
        if self._tracer.enabled:
            self._tracer.event("abort", txn, reason=reason, expunged=len(own))
        self._fire(
            OP_ABORT, txn, {"aborted": [txn], "reason": reason, "expunged": own}
        )
        self._locks.release_all(txn)
        aborted.append(txn)

        # Cascade: siblings whose assigned versions died with us.  Only
        # live transactions can hold a stale assignment — the record
        # table keeps every transaction ever defined, so scanning it
        # here was quadratic over a server's lifetime.
        dead = {(entity, sequence) for entity, sequence in own}
        for other_name in list(self._active) if dead else ():
            other = self._records[other_name]
            if other.terminated or other.name == txn:
                continue
            stale_items = [
                item
                for item, version in other.assigned.items()
                if (version.entity, version.sequence) in dead
            ]
            if not stale_items:
                continue
            if any(item in other.read_items for item in stale_items):
                aborted.extend(
                    self.abort(
                        other.name,
                        reason=f"read a version aborted with {txn}",
                    )
                )
                continue
            # Re-select without the dead versions.
            if other.parent is not None and other.phase is TxnPhase.VALIDATED:
                assignment = self._reselect(other, {})
                if assignment is None:
                    aborted.extend(
                        self.abort(
                            other.name,
                            reason="no valid versions after cascade",
                        )
                    )
                elif assignment != other.assigned:
                    self._fire(
                        OP_REASSIGN, other.name, {"assigned": assignment}
                    )
        return aborted

    # -- verification (Lemma 4 / Theorem 2) -----------------------------------------

    def verify_parent_based(self, parent: str) -> list[str]:
        """Lemma 4: every committed child read only parent/sibling state.

        Returns violation descriptions (empty = parent-based).  A child
        reads what its subtree was assigned.  Each version must be
        authored by a sibling that is not a partial-order successor, or
        come from outside the parent's subtree: then it is the parent's
        own version of the item, if the parent has one, and otherwise
        one the parent offers from its own parent, whose check judges
        it (docs/paper_map.md).
        """
        violations: list[str] = []
        parent_record = self.record(parent)
        # Built from the records, not asked of the live index: this
        # oracle must not share the structure it judges.
        order = PartialOrder(
            parent_record.children, parent_record.order_pairs
        )
        for child in parent_record.children:
            if self.record(child).phase is not TxnPhase.COMMITTED:
                continue
            for item, version in self._subtree_reads(child):
                if version.author is None:
                    continue  # t_0 precedes every transaction
                sibling = self._sibling_ancestor(version.author, parent)
                if sibling is None:
                    offered = parent_record.assigned.get(item, version)
                    if version != offered:
                        violations.append(
                            f"{child} read {item} from non-sibling "
                            f"{version.author}"
                        )
                elif order.precedes(child, sibling):
                    kind = "" if sibling == version.author else " subtree"
                    violations.append(
                        f"{child} read {item} from successor{kind} "
                        f"{sibling}"
                    )
        return violations

    def _subtree_reads(self, txn: str) -> Iterator[tuple[str, Version]]:
        """What ``txn``'s subtree reads: the versions assigned in it,
        aborted transactions left out."""
        record = self.record(txn)
        if record.phase is not TxnPhase.ABORTED:
            yield from sorted(record.assigned.items())
            for child in record.children:
                yield from self._subtree_reads(child)

    def _sibling_ancestor(self, txn: str | None, parent: str) -> str | None:
        name: str | None = txn
        while name is not None:
            record = self._records.get(name)
            if record is None:
                return None
            if record.parent == parent:
                return name
            name = record.parent
        return None

    def verify_correctness(self, parent: str) -> list[str]:
        """Theorem 2: inputs satisfied at read time, output at commit.

        Re-checks, from the recorded assignments, that every committed
        child's input constraint holds on the version state it was
        assigned, and that the parent's output condition holds on its
        current world view (when the parent has committed).
        """
        violations: list[str] = []
        parent_record = self.record(parent)
        for child in parent_record.children:
            child_record = self.record(child)
            if child_record.phase is not TxnPhase.COMMITTED:
                continue
            values = {
                item: version.value
                for item, version in child_record.assigned.items()
            }
            constraint = child_record.spec.input_constraint
            relevant = {
                name: values[name]
                for name in constraint.entities()
                if name in values
            }
            if set(relevant) != set(constraint.entities()):
                violations.append(
                    f"{child}: assigned state does not cover I_t"
                )
            elif not constraint.evaluate(relevant):
                violations.append(
                    f"{child}: input constraint violated at read time"
                )
        if parent_record.phase is TxnPhase.COMMITTED:
            view = self.view(parent)
            if not parent_record.spec.output_condition.evaluate(view):
                violations.append(
                    f"{parent}: output condition violated at commit"
                )
        return violations
