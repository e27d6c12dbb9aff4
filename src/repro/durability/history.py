"""WAL records → flat schedules for RC/ACA/ST classification.

Bridges the durability subsystem to the model-level recoverability
hierarchy of :mod:`repro.schedules.recovery`: the committed projection
of a WAL (data operations of finally-committed transactions, in LSN
order, commit order by COMMIT LSN) becomes a
:class:`~repro.schedules.recovery.CommittedSchedule`.

One honesty note: :class:`~repro.schedules.schedule.Schedule` is
mono-version — its reads-from function serves every read from the
*most recent earlier write*.  The Section-5 manager is multi-version
and may serve an older committed version, so the flat projection can
disagree with the *recorded* reads-from relation.
:func:`flat_reads_match_recorded` detects this; when it holds, the
classical predicates apply verbatim, and :func:`recorded_is_rc` is the
multi-version-faithful RC check that holds for every recovered
history regardless.
"""

from __future__ import annotations

from typing import Iterable

from ..schedules.operations import Operation, OpType
from ..schedules.recovery import CommittedSchedule
from .records import OP_READ, OP_WRITE, WalRecord
from .recovery import fold_committed


def _final_committed(records: "list[WalRecord]") -> list[str]:
    """Finally-committed transaction names, in commit (LSN) order."""
    return fold_committed(records, set())[0]


def committed_projection(
    records: Iterable[WalRecord],
    commit_order: "list[str] | None" = None,
) -> CommittedSchedule | None:
    """The committed projection of a WAL as a flat schedule.

    ``commit_order`` overrides the WAL-derived committed set — pass
    :attr:`RecoveryResult.committed` to project onto the transactions
    that actually *survived* recovery (the WAL itself records no
    ABORT for the undo pass's in-flight rollbacks).  Returns ``None``
    when no surviving transaction performed data operations.
    """
    records = list(records)
    if commit_order is None:
        commit_order = _final_committed(records)
    committed = set(commit_order)
    ops: list[Operation] = []
    for record in records:
        if record.txn not in committed:
            continue
        if record.op == OP_READ:
            ops.append(
                Operation(record.txn, OpType.READ, record.data["entity"])
            )
        elif record.op == OP_WRITE:
            ops.append(
                Operation(
                    record.txn, OpType.WRITE, record.data["entity"]
                )
            )
    if not ops:
        return None
    from ..schedules.schedule import Schedule

    schedule = Schedule(ops)
    order = [
        txn
        for txn in commit_order
        if txn in set(schedule.transactions)
    ]
    return CommittedSchedule(schedule, tuple(order))


def recorded_reads_from(
    records: Iterable[WalRecord],
) -> dict[tuple[str, str, int], "str | None"]:
    """The reads-from relation the WAL actually recorded.

    Maps ``(reader, entity, occurrence)`` to the *author* of the
    version served (``None`` for the initial version), counting each
    reader's reads of one entity in order — the same keying the flat
    :meth:`Schedule.read_sources` uses, so the two are comparable.
    """
    sources: dict[tuple[str, str, int], "str | None"] = {}
    seen: dict[tuple[str, str], int] = {}
    for record in records:
        if record.op != OP_READ:
            continue
        entity = record.data["entity"]
        key = (record.txn, entity)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        author = record.data["version"][1]
        sources[(record.txn, entity, occurrence)] = author
    return sources


def flat_reads_match_recorded(
    records: Iterable[WalRecord],
    commit_order: "list[str] | None" = None,
) -> bool:
    """Does the mono-version flattening agree with recorded reads-from?

    Compares, for committed transactions only, each read's recorded
    author with the flat schedule's most-recent-earlier-write source.
    When ``True``, the classical RC/ACA/ST predicates speak for the
    actual execution.
    """
    records = list(records)
    committed_schedule = committed_projection(records, commit_order)
    if committed_schedule is None:
        return True
    committed = set(committed_schedule.schedule.transactions)
    flat = committed_schedule.schedule.read_sources()
    recorded = {
        key: author
        for key, author in recorded_reads_from(records).items()
        if key[0] in committed
    }
    for key, author in recorded.items():
        flat_author = flat.get(key)
        effective = author if author in committed else None
        if flat_author != effective:
            return False
    return True


def recorded_is_rc(
    records: Iterable[WalRecord],
    commit_order: "list[str] | None" = None,
) -> bool:
    """RC against the *recorded* (multi-version) reads-from relation.

    Every committed reader's committed sources must commit before the
    reader does (compared by COMMIT LSN).  This is the check that is
    faithful to the multi-version execution and must hold for every
    WAL a recovery pass accepts.
    """
    records = list(records)
    if commit_order is None:
        commit_order = _final_committed(records)
    commit_position = {
        name: index for index, name in enumerate(commit_order)
    }
    for (reader, __, ___), author in recorded_reads_from(
        records
    ).items():
        if reader not in commit_position:
            continue  # reader never (finally) committed
        if author is None or author == reader:
            continue
        if author not in commit_position:
            return False  # read from a never-committed transaction
        if commit_position[author] > commit_position[reader]:
            return False
    return True
