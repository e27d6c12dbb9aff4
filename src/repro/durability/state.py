"""The logical replay state: redo, undo, and materialization.

:class:`LogicalState` is the durable image of a running
:class:`~repro.protocol.scheduler.TransactionManager`: the schema, the
consistency constraint, every live version, and every transaction
record (phase, assigned versions, reads-from, writes, relative-commit
releases).  It is plain JSON-able data, captured two ways:

* :meth:`from_manager` — a checkpoint of a live manager;
* :meth:`apply` — redo of one WAL record during replay.

Recovery composes them: load the newest checkpoint, :meth:`apply` the
WAL suffix, :meth:`undo_in_flight` to abort whatever the crash caught
mid-execution (cascading through the *recorded* reads-from relation —
exactly the phenomenon the RC/ACA/ST hierarchy of
:mod:`repro.schedules.recovery` classifies), then :meth:`materialize`
a fresh manager whose records are resurrected from the survivors so
the Section-5 verification predicates (``verify_parent_based``,
``verify_correctness``) can run against the recovered state.

One deliberate divergence from the live manager: the runtime
:meth:`~repro.protocol.scheduler.TransactionManager.abort` of an
already-committed child leaves the child's released values merged into
the parent's world view (its versions are expunged but the values
linger).  Recovery instead rebuilds every parent's world view from the
release log of *finally committed, surviving* children only — the
recovered state is the clean committed prefix, which is also what the
independent verification fold computes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any

from ..core.entities import Domain, Entity, Schema
from ..core.predicates import Predicate
from ..core.states import UniqueState
from ..core.transactions import Spec
from ..errors import RecoveryError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..protocol.scheduler import (
    TransactionManager,
    TxnPhase,
    TxnRecord,
)
from ..protocol.validation import VersionSelector
from ..storage.database import Database
from ..storage.version_store import Version, VersionStore
from .records import (
    OP_ABORT,
    OP_COMMIT,
    OP_DEFINE,
    OP_PREPARE,
    OP_READ,
    OP_REASSIGN,
    OP_UNDO_COMMIT,
    OP_VALIDATE,
    OP_WRITE,
    WalRecord,
)

VersionRef = tuple[int, "str | None", int]  # (value, author, sequence)


def _ref(version: Version) -> list[Any]:
    return [version.value, version.author, version.sequence]


@dataclass
class TxnState:
    """The durable image of one transaction record."""

    name: str
    parent: str | None
    phase: str
    update_set: list[str]
    input_constraint: str
    output_condition: str
    children: list[str] = field(default_factory=list)
    order_pairs: list[list[str]] = field(default_factory=list)
    child_counter: int = 0
    did_data_access: bool = False
    assigned: dict[str, list[Any]] = field(default_factory=dict)
    read_items: list[str] = field(default_factory=list)
    read_versions: dict[str, list[Any]] = field(default_factory=dict)
    writes: dict[str, list[Any]] = field(default_factory=dict)
    release_log: list[list[Any]] = field(default_factory=list)
    merged_child_writes: dict[str, int] = field(default_factory=dict)
    in_flight_writes: list[str] = field(default_factory=list)
    commit_lsn: int | None = None
    #: 2PC phase-1 promise: ``{"gid", "participants", "coordinator"}``
    #: from the PREPARE record, or ``None``.  Serialised only when set
    #: so single-shard checkpoints stay byte-identical to the old
    #: format.
    prepared: dict[str, Any] | None = None

    @property
    def terminated(self) -> bool:
        return self.phase in ("committed", "aborted")

    def to_dict(self) -> dict[str, Any]:
        payload = {
            "name": self.name,
            "parent": self.parent,
            "phase": self.phase,
            "update_set": self.update_set,
            "input_constraint": self.input_constraint,
            "output_condition": self.output_condition,
            "children": self.children,
            "order_pairs": self.order_pairs,
            "child_counter": self.child_counter,
            "did_data_access": self.did_data_access,
            "assigned": self.assigned,
            "read_items": self.read_items,
            "read_versions": self.read_versions,
            "writes": self.writes,
            "release_log": self.release_log,
            "merged_child_writes": self.merged_child_writes,
            "in_flight_writes": self.in_flight_writes,
            "commit_lsn": self.commit_lsn,
        }
        if self.prepared is not None:
            payload["prepared"] = self.prepared
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TxnState":
        return cls(**payload)


@dataclass
class UndoReport:
    """What :meth:`LogicalState.undo_in_flight` had to roll back."""

    aborted_in_flight: list[str] = field(default_factory=list)
    cascaded_aborts: list[str] = field(default_factory=list)
    cascaded_commits: list[str] = field(default_factory=list)
    expunged_versions: int = 0

    @property
    def all_dead(self) -> list[str]:
        return (
            self.aborted_in_flight
            + self.cascaded_aborts
            + self.cascaded_commits
        )


def _domain_to_dict(domain: Domain) -> dict[str, Any]:
    if domain.values is not None:
        return {"values": sorted(domain.values)}
    return {"low": domain.low, "high": domain.high}


def _domain_from_dict(payload: dict[str, Any]) -> Domain:
    if "values" in payload:
        return Domain(values=frozenset(payload["values"]))
    return Domain(low=payload["low"], high=payload["high"])


class LogicalState:
    """JSON-able logical state of a manager plus its version store."""

    def __init__(
        self,
        schema_spec: dict[str, dict[str, Any]],
        constraint: str,
        initial: dict[str, int],
        next_sequence: int,
        versions: "list[list[Any]]",
        txns: dict[str, TxnState],
        root: str,
    ) -> None:
        self.schema_spec = schema_spec
        self.constraint = constraint
        self.initial = initial
        self.next_sequence = next_sequence
        # entity -> [ [value, author, sequence], ... ] in creation order
        self.versions: dict[str, list[list[Any]]] = {
            name: [] for name in schema_spec
        }
        for entity, value, author, sequence in versions:
            self.versions[entity].append([value, author, sequence])
        self.txns = txns
        self.root = root

    # -- construction ------------------------------------------------------

    @classmethod
    def from_manager(cls, manager: TransactionManager) -> "LogicalState":
        db = manager.database
        schema = db.schema
        snapshot = db.store.snapshot()
        txns: dict[str, TxnState] = {}
        for record in manager.iter_records():
            txns[record.name] = cls._txn_from_record(record)
        return cls(
            schema_spec={
                name: _domain_to_dict(schema[name].domain)
                for name in schema.names
            },
            constraint=str(db.constraint),
            initial={
                name: db.initial_state[name] for name in schema.names
            },
            next_sequence=snapshot["next_sequence"],
            versions=snapshot["versions"],
            txns=txns,
            root=manager.root,
        )

    @staticmethod
    def _txn_from_record(record: TxnRecord) -> TxnState:
        assigned = {
            item: _ref(version)
            for item, version in record.assigned.items()
        }
        return TxnState(
            name=record.name,
            parent=record.parent,
            phase=record.phase.value,
            update_set=sorted(record.update_set),
            input_constraint=str(record.spec.input_constraint),
            output_condition=str(record.spec.output_condition),
            children=list(record.children),
            order_pairs=sorted(
                [a, b] for a, b in record.order_pairs
            ),
            child_counter=record.child_counter,
            did_data_access=record.did_data_access,
            assigned=assigned,
            read_items=sorted(record.read_items),
            read_versions={
                item: assigned[item]
                for item in sorted(record.read_items)
                if item in assigned
            },
            writes={
                entity: [version.value, version.sequence]
                for entity, version in record.writes.items()
            },
            release_log=[
                [child, dict(released)]
                for child, released in record.release_log
            ],
            merged_child_writes=dict(record.merged_child_writes),
            in_flight_writes=sorted(record.in_flight_writes),
            commit_lsn=record.commit_lsn,
            prepared=(
                dict(record.prepared)
                if record.prepared is not None and not record.terminated
                else None
            ),
        )

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        rows = sorted(
            (
                [entity, value, author, sequence]
                for entity, triples in self.versions.items()
                for value, author, sequence in triples
            ),
            key=lambda row: row[3],
        )
        return {
            "schema": self.schema_spec,
            "constraint": self.constraint,
            "initial": self.initial,
            "store": {
                "next_sequence": self.next_sequence,
                "versions": rows,
            },
            "txns": {
                name: txn.to_dict() for name, txn in self.txns.items()
            },
            "root": self.root,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LogicalState":
        try:
            return cls(
                schema_spec=payload["schema"],
                constraint=payload["constraint"],
                initial=payload["initial"],
                next_sequence=payload["store"]["next_sequence"],
                versions=payload["store"]["versions"],
                txns={
                    name: TxnState.from_dict(txn)
                    for name, txn in payload["txns"].items()
                },
                root=payload["root"],
            )
        except (KeyError, TypeError) as error:
            raise RecoveryError(
                f"malformed checkpoint state: {error}"
            ) from None

    def clone(self) -> "LogicalState":
        return LogicalState.from_dict(copy.deepcopy(self.to_dict()))

    # -- redo --------------------------------------------------------------

    def apply(self, record: WalRecord) -> None:
        """Redo one WAL record against this state."""
        handler = {
            OP_DEFINE: self._apply_define,
            OP_VALIDATE: self._apply_validate,
            OP_REASSIGN: self._apply_reassign,
            OP_READ: self._apply_read,
            OP_WRITE: self._apply_write,
            OP_COMMIT: self._apply_commit,
            OP_UNDO_COMMIT: self._apply_undo_commit,
            OP_ABORT: self._apply_abort,
            OP_PREPARE: self._apply_prepare,
        }[record.op]
        handler(record)

    def _txn(self, name: str) -> TxnState:
        try:
            return self.txns[name]
        except KeyError:
            raise RecoveryError(
                f"WAL references unknown transaction {name!r}"
            ) from None

    def _apply_define(self, record: WalRecord) -> None:
        data = record.data
        parent = self._txn(data["parent"])
        name = record.txn
        if name in self.txns:
            raise RecoveryError(f"duplicate DEFINE for {name}")
        parent.children.append(name)
        suffix = int(name.rsplit(".", 1)[1])
        parent.child_counter = max(parent.child_counter, suffix + 1)
        for pred in data["predecessors"]:
            parent.order_pairs.append([pred, name])
        for succ in data["successors"]:
            parent.order_pairs.append([name, succ])
        self.txns[name] = TxnState(
            name=name,
            parent=data["parent"],
            phase="defined",
            update_set=list(data["update_set"]),
            input_constraint=data["input_constraint"],
            output_condition=data["output_condition"],
        )

    def _apply_validate(self, record: WalRecord) -> None:
        txn = self._txn(record.txn)
        txn.assigned = dict(record.data["assigned"])
        txn.phase = "validated"

    def _apply_reassign(self, record: WalRecord) -> None:
        txn = self._txn(record.txn)
        txn.assigned = dict(record.data["assigned"])

    def _apply_read(self, record: WalRecord) -> None:
        txn = self._txn(record.txn)
        entity = record.data["entity"]
        if entity not in txn.read_items:
            txn.read_items.append(entity)
        txn.read_versions[entity] = list(record.data["version"])
        txn.did_data_access = True

    def _apply_write(self, record: WalRecord) -> None:
        txn = self._txn(record.txn)
        entity = record.data["entity"]
        value = record.data["value"]
        sequence = record.data["sequence"]
        if sequence != self.next_sequence:
            raise RecoveryError(
                f"WRITE lsn={record.lsn} expects sequence {sequence} "
                f"but replay is at {self.next_sequence} — "
                "non-deterministic replay"
            )
        self.next_sequence += 1
        self.versions[entity].append([value, record.txn, sequence])
        txn.writes[entity] = [value, sequence]
        txn.did_data_access = True

    def _apply_prepare(self, record: WalRecord) -> None:
        """Redo a 2PC phase-1 promise.

        The branch's protocol phase is untouched — a prepared branch
        that never hears the decision is in-doubt, and
        :meth:`undo_in_flight` aborts it (presumed abort) unless the
        sharded recovery pass resolved it to commit first by consulting
        the coordinator shard's log.
        """
        txn = self._txn(record.txn)
        txn.prepared = dict(record.data)

    def _apply_commit(self, record: WalRecord) -> None:
        txn = self._txn(record.txn)
        txn.phase = "committed"
        txn.commit_lsn = record.lsn
        released = dict(record.data["released"])
        if txn.parent is not None:
            parent = self._txn(txn.parent)
            parent.release_log.append([txn.name, released])
            parent.merged_child_writes.update(released)

    def _apply_undo_commit(self, record: WalRecord) -> None:
        txn = self._txn(record.txn)
        txn.phase = "validated"
        txn.commit_lsn = None
        if txn.parent is not None:
            parent = self._txn(txn.parent)
            parent.release_log = [
                entry
                for entry in parent.release_log
                if entry[0] != txn.name
            ]
            rebuilt: dict[str, int] = {}
            for __, released in parent.release_log:
                rebuilt.update(released)
            parent.merged_child_writes = rebuilt

    def _apply_abort(self, record: WalRecord) -> None:
        for name in record.data["aborted"]:
            self._txn(name).phase = "aborted"
        dead = {
            (entity, sequence)
            for entity, sequence in map(tuple, record.data["expunged"])
        }
        if dead:
            for entity, triples in self.versions.items():
                self.versions[entity] = [
                    triple
                    for triple in triples
                    if (entity, triple[2]) not in dead
                ]

    # -- undo --------------------------------------------------------------

    def undo_in_flight(self) -> UndoReport:
        """Abort everything the crash caught mid-execution, cascading.

        Death spreads three ways and runs to fixpoint:

        * downward — a dead transaction's whole subtree dies (its
          children's commits were only relative to it);
        * upward — a dead transaction that had *committed* into a
          committed parent taints the parent's merged world, so the
          parent dies too (the cascading-rollback phenomenon);
        * sideways — any survivor whose *recorded reads-from* edge
          points at an expunged version dies (RC enforcement: nobody
          may have read state that no longer exists).
        """
        report = UndoReport()
        was_committed = {
            name
            for name, txn in self.txns.items()
            if txn.phase == "committed"
        }
        dead: set[str] = set()
        frontier = [
            name
            for name, txn in self.txns.items()
            if name != self.root and not txn.terminated
        ]
        in_flight = set(frontier)
        while frontier:
            next_frontier: list[str] = []
            for name in frontier:
                if name in dead:
                    continue
                dead.add(name)
                txn = self.txns[name]
                next_frontier.extend(txn.children)
                if (
                    name in was_committed
                    and txn.parent is not None
                    and txn.parent != self.root
                    and txn.parent in was_committed
                ):
                    next_frontier.append(txn.parent)
            frontier = [n for n in next_frontier if n not in dead]
            if frontier:
                continue
            # Sideways: reads-from edges into versions that die with
            # the current dead set.
            dead_refs = {
                (entity, triple[2])
                for entity, triples in self.versions.items()
                for triple in triples
                if triple[1] in dead
            }
            for name, txn in self.txns.items():
                if name in dead or txn.phase == "aborted":
                    continue
                if name == self.root:
                    continue
                for entity, ref in txn.read_versions.items():
                    if (entity, ref[2]) in dead_refs:
                        frontier.append(name)
                        break

        for entity, triples in self.versions.items():
            kept = [t for t in triples if t[1] not in dead]
            report.expunged_versions += len(triples) - len(kept)
            self.versions[entity] = kept
        for name in sorted(dead):
            txn = self.txns[name]
            txn.phase = "aborted"
            txn.in_flight_writes = []
            if name in was_committed:
                report.cascaded_commits.append(name)
            elif name in in_flight:
                report.aborted_in_flight.append(name)
            else:
                report.cascaded_aborts.append(name)

        # Rebuild every surviving parent's world view from the release
        # log of finally-committed children only (clean semantics; see
        # the module docstring).
        for txn in self.txns.values():
            surviving = [
                entry
                for entry in txn.release_log
                if self.txns[entry[0]].phase == "committed"
            ]
            txn.release_log = surviving
            rebuilt: dict[str, int] = {}
            for __, released in surviving:
                rebuilt.update(released)
            txn.merged_child_writes = rebuilt
        return report

    # -- views -------------------------------------------------------------

    def committed_names(self) -> list[str]:
        """Surviving committed transactions, in commit order."""
        committed = [
            txn
            for txn in self.txns.values()
            if txn.phase == "committed"
        ]
        committed.sort(key=lambda txn: txn.commit_lsn or 0)
        return [txn.name for txn in committed]

    def root_view(self) -> dict[str, int]:
        """The root's world view: initial values + merged releases."""
        view = dict(self.initial)
        view.update(self.txns[self.root].merged_child_writes)
        return view

    # -- materialization ---------------------------------------------------

    def build_schema(self) -> Schema:
        return Schema(
            Entity(name, _domain_from_dict(spec))
            for name, spec in self.schema_spec.items()
        )

    def materialize(
        self,
        *,
        selector: VersionSelector | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        strict: bool = False,
        manager_class: type[TransactionManager] = TransactionManager,
        **manager_kwargs: Any,
    ) -> TransactionManager:
        """Resurrect a live manager over this state.

        The returned manager serves new transactions against the
        recovered world: the root's child counter continues (no name
        reuse — a reused name would let a future abort expunge a
        recovered transaction's versions), the release log and merged
        world view are restored, and every recorded transaction is
        rebuilt so the Section-5 verification predicates can run.
        """
        schema = self.build_schema()
        constraint = Predicate.parse(self.constraint)
        store = VersionStore.from_snapshot(
            schema,
            {
                "next_sequence": self.next_sequence,
                "versions": sorted(
                    (
                        [entity, value, author, sequence]
                        for entity, triples in self.versions.items()
                        for value, author, sequence in triples
                    ),
                    key=lambda row: row[3],
                ),
            },
        )
        database = Database.from_parts(
            schema,
            constraint,
            UniqueState(schema, dict(self.initial)),
            store,
        )
        root_state = self.txns[self.root]
        manager = manager_class(
            database,
            selector=selector,
            root_spec=Spec(
                Predicate.parse(root_state.input_constraint),
                Predicate.parse(root_state.output_condition),
            ),
            tracer=tracer,
            registry=registry,
            strict=strict,
            # The recovered root's label (shard managers use a custom
            # one) so resurrected and future names share a namespace.
            root_name=self.root,
            **manager_kwargs,
        )
        # Resurrection reaches into the manager's record table: the
        # durability layer is the one component allowed to rebuild
        # protocol state it previously persisted.
        records = manager._records
        root_record = records[self.root]
        self._restore_common(root_record, root_state)
        for name, txn_state in self.txns.items():
            if name == self.root:
                continue
            record = TxnRecord(
                name=name,
                parent=txn_state.parent,
                spec=Spec(
                    Predicate.parse(txn_state.input_constraint),
                    Predicate.parse(txn_state.output_condition),
                ),
                update_set=frozenset(txn_state.update_set),
                phase=TxnPhase(txn_state.phase),
            )
            record.assigned = {
                item: Version(item, value, author, sequence)
                for item, (value, author, sequence) in sorted(
                    txn_state.assigned.items()
                )
            }
            record.read_items = set(txn_state.read_items)
            record.writes = {
                entity: Version(entity, value, name, sequence)
                for entity, (value, sequence) in sorted(
                    txn_state.writes.items()
                )
            }
            record.commit_lsn = txn_state.commit_lsn
            self._restore_common(record, txn_state)
            # Adoption (not a bare table insert) keeps the manager's
            # live-transaction set and fast-path caches coherent.
            manager._adopt_record(record)
        return manager

    @staticmethod
    def _restore_common(record: TxnRecord, txn_state: TxnState) -> None:
        record.children = list(txn_state.children)
        record.order_pairs = {
            (a, b) for a, b in txn_state.order_pairs
        }
        record.child_counter = txn_state.child_counter
        record.did_data_access = txn_state.did_data_access
        record.merged_child_writes = dict(txn_state.merged_child_writes)
        record.release_log = [
            (child, dict(released))
            for child, released in txn_state.release_log
        ]
