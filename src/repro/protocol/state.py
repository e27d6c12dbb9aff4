"""The protocol state and its one transition function.

Section 5.1's manager is a transition system over ``(T, P, I, O)``:
the transaction records (:class:`TxnRecord` — tree, partial order,
specifications, assignments, reads, writes, relative-commit releases),
the multi-version store, and the database header.
:class:`ProtocolState` is that state and :meth:`ProtocolState.apply`
its **only** mutator: one handler per record kind, fired by the live
manager once it has decided a step, by ``recover()``, by in-doubt 2PC
resolution and by a follower replaying the primary's log — the same
code, so they cannot drift.

A step's record is ``(op, txn, data)`` with ``data`` holding live values
(a :class:`Spec`, :class:`Version` objects); :func:`encode` /
:func:`decode` convert to and from the JSON payload the write-ahead log
stores, and :meth:`ProtocolState.dump` / :meth:`ProtocolState.load` are
the checkpoint payload, which :meth:`ProtocolState.encoded` encodes
from a per-record cache that ``apply`` keeps current.  Recovery is
``load`` the newest checkpoint, ``apply`` the WAL suffix, then decide
what the crash caught mid-execution and ``apply`` one more (unlogged)
ABORT — see :func:`repro.durability.recovery.undo_in_flight`.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

from ..core.entities import Domain, Entity, Schema
from ..core.naming import TxnName
from ..core.predicates import parse_cached
from ..core.states import UniqueState
from ..core.transactions import Spec
from ..errors import RecoveryError
from ..storage.database import Database
from ..storage.version_store import Version, VersionStore
from .fastpath import ParentIndex

# Record kinds, mirroring the manager's API.
OP_DEFINE = "define"
OP_VALIDATE = "validate"
OP_REASSIGN = "reassign"
OP_READ = "read"
OP_WRITE = "write"
OP_COMMIT = "commit"
OP_UNDO_COMMIT = "undo_commit"
OP_ABORT = "abort"
#: Two-phase commit, phase 1: the shard promises to commit this branch
#: if the coordinator decides commit.  ``data`` carries the global
#: transaction id, the participant branch names keyed by shard, and the
#: coordinator shard — enough for recovery to resolve the branch
#: in-doubt (presumed abort) against the coordinator shard's decision.
OP_PREPARE = "prepare"


class TxnPhase(enum.Enum):
    DEFINED = "defined"
    VALIDATED = "validated"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(slots=True)
class TxnRecord:
    """Bookkeeping for one transaction in the tree."""

    name: str
    parent: str | None
    spec: Spec
    update_set: frozenset[str]
    phase: TxnPhase = TxnPhase.DEFINED
    #: Why the transaction aborted (None while live/committed); the
    #: server reports it for every cascade victim.
    abort_reason: str | None = None
    children: list[str] = field(default_factory=list)
    order_pairs: set[tuple[str, str]] = field(default_factory=set)
    assigned: dict[str, Version] = field(default_factory=dict)
    read_items: set[str] = field(default_factory=set)
    writes: dict[str, Version] = field(default_factory=dict)
    #: Per item, the version the last committed child released: the
    #: world view offered to the children beyond the assignment.
    world: dict[str, Version] = field(default_factory=dict)
    #: Each committed child's release, in commit order.
    release_log: list[tuple[str, dict[str, Version]]] = field(
        default_factory=list
    )
    child_counter: int = 0
    did_data_access: bool = False
    #: The LSN of the COMMIT record (None without a log, or once the
    #: commit is undone).
    commit_lsn: int | None = None
    #: 2PC phase-1 promise: ``{"gid", "participants", "coordinator"}``
    #: from the PREPARE record, until the decision lands.
    prepared: dict[str, Any] | None = None
    #: Position in definition order (the record table's order).
    ordinal: int = 0

    @property
    def input_set(self) -> frozenset[str]:
        return self.spec.input_constraint.entities()

    @property
    def terminated(self) -> bool:
        return self.phase in (TxnPhase.COMMITTED, TxnPhase.ABORTED)

    def released(self) -> dict[str, Version]:
        """What committing releases to the parent: the world its
        children released, overlaid with the transaction's own writes."""
        return {**self.world, **self.writes}

    def world_without(self, children: Iterable[str]) -> dict[str, Version]:
        """The world view with ``children``'s releases taken back out."""
        world: dict[str, Version] = {}
        for child, released in self.release_log:
            if child not in children:
                world.update(released)
        return world


# ---------------------------------------------------------------------------
# JSON forms: WAL payloads and the checkpoint
# ---------------------------------------------------------------------------


def version_ref(version: Version) -> list[Any]:
    return [version.value, version.author, version.sequence]


def values(versions: dict[str, Version]) -> dict[str, int]:
    """``item -> value``: the form a release takes on disk."""
    return {item: version.value for item, version in versions.items()}


def _refs(assigned: dict[str, Version]) -> dict[str, list[Any]]:
    return {item: version_ref(version) for item, version in assigned.items()}


def _versions(refs: dict[str, list[Any]]) -> dict[str, Version]:
    return {item: Version(item, *ref) for item, ref in refs.items()}


def _spec(input_text: str, output_text: str) -> Spec:
    # Replay and followers never evaluate most of these predicates:
    # the cached parser keeps a DEFINE at two dictionary hits.
    return Spec(parse_cached(input_text), parse_cached(output_text))


def encode(op: str, data: dict[str, Any]) -> dict[str, Any]:
    """The JSON payload of one record (WAL wire format)."""
    if op == OP_DEFINE:
        spec = data["spec"]
        return {
            "parent": data["parent"],
            "update_set": sorted(data["update_set"]),
            "predecessors": data["predecessors"],
            "successors": data["successors"],
            "input_constraint": str(spec.input_constraint),
            "output_condition": str(spec.output_condition),
        }
    if op == OP_VALIDATE or op == OP_REASSIGN:
        return {"assigned": _refs(data["assigned"])}
    return data


def decode(op: str, data: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`encode`: a WAL payload as ``apply`` takes it."""
    if op == OP_DEFINE:
        return {
            "parent": data["parent"],
            "update_set": frozenset(data["update_set"]),
            "predecessors": data["predecessors"],
            "successors": data["successors"],
            "spec": _spec(
                data["input_constraint"], data["output_condition"]
            ),
        }
    if op == OP_VALIDATE or op == OP_REASSIGN:
        return {"assigned": _versions(data["assigned"])}
    return data


def _domain_to_dict(domain: Domain) -> dict[str, Any]:
    if domain.values is not None:
        return {"values": sorted(domain.values)}
    return {"low": domain.low, "high": domain.high}


def _domain_from_dict(payload: dict[str, Any]) -> Domain:
    if "values" in payload:
        return Domain(values=frozenset(payload["values"]))
    return Domain(low=payload["low"], high=payload["high"])


def _dump_record(record: TxnRecord) -> dict[str, Any]:
    assigned = _refs(record.assigned)
    payload = {
        "name": record.name,
        "parent": record.parent,
        "phase": record.phase.value,
        "update_set": sorted(record.update_set),
        "input_constraint": str(record.spec.input_constraint),
        "output_condition": str(record.spec.output_condition),
        "children": list(record.children),
        "order_pairs": sorted([a, b] for a, b in record.order_pairs),
        "child_counter": record.child_counter,
        "did_data_access": record.did_data_access,
        "assigned": assigned,
        "read_items": sorted(record.read_items),
        # The recorded reads-from relation: reads are pinned, so a read
        # item's assigned version is the version that was read.
        "read_versions": {
            item: assigned[item]
            for item in sorted(record.read_items)
            if item in assigned
        },
        "writes": {
            entity: [version.value, version.sequence]
            for entity, version in record.writes.items()
        },
        "release_log": [
            [child, values(released)]
            for child, released in record.release_log
        ],
        "merged_child_writes": values(record.world),
        # A begun write is volatile (its W lock); the key stays for
        # readers of the old format.
        "in_flight_writes": [],
        "commit_lsn": record.commit_lsn,
    }
    if record.prepared is not None:
        payload["prepared"] = dict(record.prepared)
    return payload


def _load_record(ordinal: int, payload: dict[str, Any]) -> TxnRecord:
    name = payload["name"]
    return TxnRecord(
        name=name,
        parent=payload["parent"],
        spec=_spec(payload["input_constraint"], payload["output_condition"]),
        update_set=frozenset(payload["update_set"]),
        phase=TxnPhase(payload["phase"]),
        children=list(payload["children"]),
        order_pairs={(a, b) for a, b in payload["order_pairs"]},
        assigned=_versions(payload["assigned"]),
        read_items=set(payload["read_items"]),
        writes={
            entity: Version(entity, value, name, sequence)
            for entity, (value, sequence) in payload["writes"].items()
        },
        child_counter=payload["child_counter"],
        did_data_access=payload["did_data_access"],
        commit_lsn=payload.get("commit_lsn"),
        prepared=payload.get("prepared"),
        ordinal=ordinal,
    )


class EncodedState(NamedTuple):
    """A checkpoint payload encoded as ``json.dumps(..., sort_keys=True)``
    writes it, in both forms a checkpoint file needs."""

    #: Compact separators: the form the checkpoint's sha256 covers.
    canonical: str
    #: Default separators: the form the file holds.
    text: str


def _member(key: str, value: Any) -> tuple[str, str]:
    """``"key": value`` as an object member, in both forms."""
    name = json.dumps(key)
    return (
        f"{name}:{json.dumps(value, sort_keys=True, separators=(',', ':'))}",
        f"{name}: {json.dumps(value, sort_keys=True)}",
    )


def _object(members: dict[str, tuple[str, str]]) -> tuple[str, str]:
    """The object holding these encoded members, in both forms, keys
    sorted as ``sort_keys`` sorts them."""
    ordered = [members[key] for key in sorted(members)]
    return (
        "{" + ",".join(member[0] for member in ordered) + "}",
        "{" + ", ".join(member[1] for member in ordered) + "}",
    )


def _encode_state(
    payload: dict[str, Any], txns: dict[str, tuple[str, str]]
) -> EncodedState:
    """``payload``'s fields other than ``txns`` encoded here, around the
    already-encoded ``txns`` members."""
    members = {
        key: _member(key, value)
        for key, value in payload.items()
        if key != "txns"
    }
    canonical, text = _object(txns)
    members["txns"] = ('"txns":' + canonical, '"txns": ' + text)
    return EncodedState(*_object(members))


def encode_state(payload: dict[str, Any]) -> EncodedState:
    """A :meth:`ProtocolState.dump` payload, encoded from scratch."""
    return _encode_state(
        payload,
        {name: _member(name, txn) for name, txn in payload["txns"].items()},
    )


# ---------------------------------------------------------------------------
# The state
# ---------------------------------------------------------------------------


class ProtocolState:
    """Records + versions + header, mutated only by :meth:`apply`."""

    def __init__(
        self, database: Database, root: str, records: dict[str, TxnRecord]
    ) -> None:
        self.database = database
        self.root = root
        self.records = records
        #: Index kept by ``apply``: non-terminated names in definition
        #: order — the abort cascade's scan set (``records`` keeps every
        #: transaction ever defined and only grows).
        self.active: dict[str, None] = {
            name: None
            for name, record in records.items()
            if not record.terminated
        }
        #: parent -> its children's bitmask index, built on first use
        #: and from then on kept current by ``apply``.
        self._indexes: dict[str, ParentIndex] = {}
        #: name -> its record's encoded checkpoint member, filled by
        #: :meth:`encoded`; ``apply`` drops the records a step touches.
        self._encoded: dict[str, tuple[str, str]] = {}

    @classmethod
    def fresh(
        cls,
        database: Database,
        root_spec: Spec | None = None,
        root_name: str | None = None,
    ) -> "ProtocolState":
        """The initial state: a validated root over ``t_0``'s versions.

        A custom root label namespaces every transaction name (names
        are ``{parent}.{counter}`` paths) — the shard router relies on
        this to keep per-shard managers from ever colliding on a name.
        """
        label = () if root_name is None else (root_name,)
        name = str(TxnName.root(*label))
        root = TxnRecord(
            name=name,
            parent=None,
            spec=(
                root_spec
                if root_spec is not None
                else Spec.invariant(database.constraint)
            ),
            update_set=frozenset(database.schema.names),
            phase=TxnPhase.VALIDATED,
            assigned={
                entity: database.store.initial(entity)
                for entity in database.schema.names
            },
        )
        return cls(database, name, {name: root})

    # -- the checkpoint payload --------------------------------------------

    def _header(self) -> dict[str, Any]:
        """The payload's fields other than ``txns``."""
        database = self.database
        schema = database.schema
        return {
            "schema": {
                name: _domain_to_dict(schema[name].domain)
                for name in schema.names
            },
            "constraint": str(database.constraint),
            "initial": database.initial_state.as_dict(),
            "store": database.store.snapshot(),
            "root": self.root,
        }

    def dump(self) -> dict[str, Any]:
        payload = self._header()
        payload["txns"] = {
            name: _dump_record(record)
            for name, record in self.records.items()
        }
        return payload

    def encoded(self) -> EncodedState:
        """:func:`encode_state` of :meth:`dump`, re-encoding only the
        records changed since the last call (the header and the store
        are encoded afresh)."""
        cache = self._encoded
        for name, record in self.records.items():
            if name not in cache:
                cache[name] = _member(name, _dump_record(record))
        return _encode_state(self._header(), cache)

    @classmethod
    def load(cls, payload: dict[str, Any]) -> "ProtocolState":
        try:
            schema = Schema(
                Entity(name, _domain_from_dict(spec))
                for name, spec in payload["schema"].items()
            )
            database = Database.from_parts(
                schema,
                parse_cached(payload["constraint"]),
                UniqueState(schema, dict(payload["initial"])),
                VersionStore.from_snapshot(schema, payload["store"]),
            )
            records = {
                name: _load_record(ordinal, txn)
                for ordinal, (name, txn) in enumerate(
                    payload["txns"].items()
                )
            }
            # Each release is rebuilt from the child's record, children
            # before parents, and must be what the checkpoint logged.
            # Only a committed child's release counts: checkpoints from
            # before ``apply`` was the only mutator could keep one of a
            # child aborted later.
            for record in reversed(list(records.values())):
                for child, logged in payload["txns"][record.name]["release_log"]:
                    if records[child].phase is not TxnPhase.COMMITTED:
                        continue
                    released = records[child].released()
                    if values(released) != logged:
                        raise RecoveryError(
                            f"malformed checkpoint state: {record.name} logs "
                            f"{child}'s release as {logged}, {child}'s record "
                            f"releases {values(released)}"
                        )
                    record.release_log.append((child, released))
                    record.world.update(released)
            state = cls(database, payload["root"], records)
        except (KeyError, TypeError) as error:
            raise RecoveryError(
                f"malformed checkpoint state: {error}"
            ) from None
        return state

    # -- the parent indexes ---------------------------------------------------

    def index(self, parent: str) -> ParentIndex:
        """``parent``'s :class:`ParentIndex`, current as of the last
        ``apply``."""
        index = self._indexes.get(parent)
        if index is None:
            index = self._indexes[parent] = self.rebuild_index(parent)
        return index

    def rebuild_index(self, parent: str) -> ParentIndex:
        """``parent``'s index from its records alone."""
        record = self.records[parent]
        records = self.records
        return ParentIndex.build(
            record.children,
            record.order_pairs,
            {child: records[child].update_set for child in record.children},
            aborted=[
                child
                for child in record.children
                if records[child].phase is TxnPhase.ABORTED
            ],
        )

    def stale_indexes(self) -> list[str]:
        """Parents whose kept index differs from a rebuild — a check
        on ``apply``'s upkeep; empty unless it has a bug."""
        return [
            parent
            for parent, index in self._indexes.items()
            if index.describe() != self.rebuild_index(parent).describe()
        ]

    # -- the transition function -------------------------------------------

    def apply(
        self, op: str, txn: str, data: dict[str, Any], lsn: int | None = None
    ) -> None:
        """Fire one record.  ``lsn`` is its WAL position, if logged.

        Drops the encoded members of every record the step can change:
        ``txn`` and its parent, and for an ABORT each name it aborts
        and that name's parent.
        """
        try:
            _HANDLERS[op](self, txn, data, lsn)
        finally:
            self._drop_encoded(txn)
            if op == OP_ABORT:
                for name in data["aborted"]:
                    self._drop_encoded(name)

    def _drop_encoded(self, name: str) -> None:
        cache = self._encoded
        cache.pop(name, None)
        record = self.records.get(name)
        if record is not None and record.parent is not None:
            cache.pop(record.parent, None)

    def apply_record(self, record: Any) -> None:
        """Fire one WAL record as read back from disk or the wire."""
        op = record.op
        self.apply(op, record.txn, decode(op, record.data), record.lsn)

    def redo(self, records: Iterable[Any], after: int) -> int:
        """Fire the records past LSN ``after``, which must be
        contiguous; returns the last LSN applied."""
        for record in records:
            if record.lsn <= after:
                continue
            if record.lsn != after + 1:
                raise RecoveryError(
                    f"WAL gap: expected lsn {after + 1}, "
                    f"found {record.lsn}"
                )
            self.apply_record(record)
            after = record.lsn
        return after

    def _record(self, name: str) -> TxnRecord:
        try:
            return self.records[name]
        except KeyError:
            raise RecoveryError(
                f"record references unknown transaction {name!r}"
            ) from None

    def _apply_define(self, name, data, lsn) -> None:
        parent = self._record(data["parent"])
        if name in self.records:
            raise RecoveryError(f"duplicate DEFINE for {name}")
        parent.children.append(name)
        suffix = int(name.rsplit(".", 1)[1])
        parent.child_counter = max(parent.child_counter, suffix + 1)
        parent.order_pairs.update(
            (pred, name) for pred in data["predecessors"]
        )
        parent.order_pairs.update(
            (name, succ) for succ in data["successors"]
        )
        self.records[name] = TxnRecord(
            name=name,
            parent=parent.name,
            spec=data["spec"],
            update_set=data["update_set"],
            ordinal=len(self.records),
        )
        self.active[name] = None
        index = self._indexes.get(parent.name)
        if index is not None:
            index.add(
                name,
                data["update_set"],
                data["predecessors"],
                data["successors"],
            )

    def _apply_validate(self, txn, data, lsn) -> None:
        record = self._record(txn)
        record.assigned = data["assigned"]
        record.phase = TxnPhase.VALIDATED

    def _apply_reassign(self, txn, data, lsn) -> None:
        self._record(txn).assigned = data["assigned"]

    def _apply_read(self, txn, data, lsn) -> None:
        record = self._record(txn)
        record.read_items.add(data["entity"])
        record.did_data_access = True

    def _apply_write(self, txn, data, lsn) -> None:
        record = self._record(txn)
        store = self.database.store
        if data["sequence"] != store.sequence_watermark:
            raise RecoveryError(
                f"WRITE lsn={lsn} expects sequence {data['sequence']} "
                f"but the store is at {store.sequence_watermark} — "
                "non-deterministic replay"
            )
        entity = data["entity"]
        record.writes[entity] = store.write(entity, data["value"], txn)
        record.did_data_access = True

    def _apply_prepare(self, txn, data, lsn) -> None:
        """A 2PC phase-1 promise.  The branch's phase is untouched — a
        prepared branch that never hears the decision is in doubt, and
        recovery's undo aborts it (presumed abort) unless the sharded
        recovery pass resolved it to commit first."""
        self._record(txn).prepared = dict(data)

    def _apply_commit(self, txn, data, lsn) -> None:
        record = self._record(txn)
        record.phase = TxnPhase.COMMITTED
        record.commit_lsn = lsn
        record.prepared = None
        self.active.pop(txn, None)
        if record.parent is not None:
            # Release this transaction's versions (its writes over its
            # children's releases) into the parent's world view.  The
            # record's ``released`` values are the log's form of them.
            parent = self._record(record.parent)
            released = record.released()
            parent.release_log.append((txn, released))
            parent.world.update(released)

    def _apply_undo_commit(self, txn, data, lsn) -> None:
        record = self._record(txn)
        record.phase = TxnPhase.VALIDATED
        record.commit_lsn = None
        self.active[txn] = None
        if record.parent is not None:
            self._withdraw(self._record(record.parent), {txn})

    def _withdraw(self, parent: TxnRecord, children: set[str]) -> None:
        """Take ``children``'s releases back out of ``parent``'s world."""
        parent.world = parent.world_without(children)
        parent.release_log = [
            entry
            for entry in parent.release_log
            if entry[0] not in children
        ]

    def _apply_abort(self, txn, data, lsn) -> None:
        """Idempotent per name and per version.  The manager's ABORT
        names one transaction, but logs written before it did repeat,
        in an enclosing abort's record, the names and versions that the
        aborts it caused had already recorded, and recovery's unlogged
        undo names every in-flight transaction at once.

        A name that had (relatively) committed takes its release back
        out of its parent's world, exactly as an undone commit does.
        """
        withdrawn: dict[str, set[str]] = {}
        for name in data["aborted"]:
            record = self._record(name)
            if record.phase is TxnPhase.ABORTED:
                continue
            if (
                record.phase is TxnPhase.COMMITTED
                and record.parent is not None
            ):
                withdrawn.setdefault(record.parent, set()).add(name)
            record.phase = TxnPhase.ABORTED
            record.abort_reason = data["reason"]
            record.commit_lsn = None
            record.prepared = None
            self.active.pop(name, None)
            index = self._indexes.get(record.parent)
            if index is not None:
                index.kill(name)
        for parent, children in withdrawn.items():
            self._withdraw(self._record(parent), children)
        self.database.store.expunge(data["expunged"])

    # -- views -------------------------------------------------------------

    def committed_names(self) -> list[str]:
        """Surviving committed transactions, in commit order."""
        committed = [
            record
            for record in self.records.values()
            if record.phase is TxnPhase.COMMITTED
        ]
        committed.sort(key=lambda record: record.commit_lsn or 0)
        return [record.name for record in committed]

    def root_view(self) -> dict[str, int]:
        """The root's world view: initial values + released versions."""
        view = self.database.initial_state.as_dict()
        view.update(values(self.records[self.root].world))
        return view


_HANDLERS = {
    OP_DEFINE: ProtocolState._apply_define,
    OP_VALIDATE: ProtocolState._apply_validate,
    OP_REASSIGN: ProtocolState._apply_reassign,
    OP_READ: ProtocolState._apply_read,
    OP_WRITE: ProtocolState._apply_write,
    OP_COMMIT: ProtocolState._apply_commit,
    OP_UNDO_COMMIT: ProtocolState._apply_undo_commit,
    OP_ABORT: ProtocolState._apply_abort,
    OP_PREPARE: ProtocolState._apply_prepare,
}
