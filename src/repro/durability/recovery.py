"""The recovery pass: checkpoint + WAL replay + undo + verification.

Recovery is *verified*, per the Börger–Schewe–Wang / Biswas–Enea line
of work motivating this subsystem: it is not enough that the files come
back — the recovered state must itself be a correct execution prefix.
Two independent checks run after replay:

1. **Committed-prefix equality** — a separate fold over the raw WAL
   records (deliberately *not* sharing :meth:`ProtocolState.apply`'s
   code path) recomputes which transactions are finally committed and
   what the root's world view must be; both must match the recovered
   manager exactly: no committed write lost, no uncommitted write
   visible.
2. **Correctness of the prefix** — the recovered database must satisfy
   the consistency predicate, and the Section-5 verification
   predicates (``verify_parent_based``, ``verify_correctness``) must
   hold over the recovered records.

A non-empty violation list means the caller must refuse to serve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ..errors import RecoveryError
from ..obs.metrics import MetricsRegistry
from ..protocol.scheduler import TransactionManager
from ..protocol.state import ProtocolState, TxnPhase, values
from .records import (
    OP_ABORT,
    OP_COMMIT,
    OP_DEFINE,
    OP_UNDO_COMMIT,
    OP_WRITE,
    WalRecord,
)
from .snapshot import CheckpointStore
from .wal import ScanResult, scan_wal, truncate_torn_tail


@dataclass
class UndoReport:
    """What :func:`undo_in_flight` had to roll back."""

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


@dataclass
class RecoveryResult:
    """Everything the recovery pass produced and measured."""

    manager: TransactionManager
    state: ProtocolState
    checkpoint_lsn: int
    last_lsn: int
    records_replayed: int
    torn_tail_truncated: bool
    undo: UndoReport
    committed: list[str]
    violations: list[str] = field(default_factory=list)
    recovery_ms: float = 0.0

    @property
    def verified(self) -> bool:
        return not self.violations

    def summary(self) -> dict[str, Any]:
        return {
            "verified": self.verified,
            "checkpoint_lsn": self.checkpoint_lsn,
            "last_lsn": self.last_lsn,
            "records_replayed": self.records_replayed,
            "torn_tail_truncated": self.torn_tail_truncated,
            "committed": len(self.committed),
            "aborted_in_flight": list(self.undo.aborted_in_flight),
            "cascaded_aborts": list(self.undo.cascaded_aborts),
            "cascaded_commits": list(self.undo.cascaded_commits),
            "expunged_versions": self.undo.expunged_versions,
            "violations": list(self.violations),
            "recovery_ms": round(self.recovery_ms, 3),
        }


def undo_in_flight(state: ProtocolState) -> UndoReport:
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

    The dead set is decided first; the undo itself is one ABORT
    record fired through ``apply`` — which also takes a dead commit's
    release back out of its parent's world — and never logged (the
    next recovery re-derives it).
    """
    records = state.records
    store = state.database.store
    was_committed = {
        name
        for name, record in records.items()
        if record.phase is TxnPhase.COMMITTED
    }
    in_flight = {
        name
        for name, record in records.items()
        if name != state.root and not record.terminated
    }
    dead: set[str] = set()
    dead_refs: set[tuple[str, int]] = set()
    frontier = list(in_flight)
    while frontier:
        next_frontier: list[str] = []
        for name in frontier:
            if name in dead:
                continue
            dead.add(name)
            record = records[name]
            next_frontier.extend(record.children)
            if (
                name in was_committed
                and record.parent is not None
                and record.parent != state.root
                and record.parent in was_committed
            ):
                next_frontier.append(record.parent)
        frontier = [n for n in next_frontier if n not in dead]
        if frontier:
            continue
        # Sideways: reads-from edges into versions that die with
        # the current dead set.
        dead_refs = {
            (version.entity, version.sequence)
            for version in store
            if version.author in dead
        }
        for name, record in records.items():
            if (
                name in dead
                or name == state.root
                or record.phase is TxnPhase.ABORTED
            ):
                continue
            for item in record.read_items:
                version = record.assigned.get(item)
                if (
                    version is not None
                    and (item, version.sequence) in dead_refs
                ):
                    frontier.append(name)
                    break

    state.apply(
        OP_ABORT,
        state.root,
        {
            "aborted": sorted(dead),
            "reason": "in flight at the crash",
            "expunged": dead_refs,
        },
    )
    report = UndoReport(expunged_versions=len(dead_refs))
    for name in sorted(dead):
        if name in was_committed:
            report.cascaded_commits.append(name)
        elif name in in_flight:
            report.aborted_in_flight.append(name)
        else:
            report.cascaded_aborts.append(name)
    return report


class Redo(NamedTuple):
    """A WAL directory's newest checkpoint with its log suffix applied."""

    state: ProtocolState
    scan: ScanResult
    checkpoint_lsn: int
    last_lsn: int
    torn_tail_truncated: bool


def redo(wal_dir: Path) -> Redo:
    """Load the newest checkpoint and apply the WAL suffix — no undo.

    The torn tail is truncated here, so a record appended afterwards
    lands on a clean log.
    """
    loaded = CheckpointStore(wal_dir).load_newest()
    if loaded is None:
        raise RecoveryError(
            f"no usable checkpoint in {wal_dir} "
            "(corrupt, or not a WAL directory)"
        )
    checkpoint_state, checkpoint_lsn = loaded
    scan = scan_wal(wal_dir)
    torn = truncate_torn_tail(scan)
    state = ProtocolState.load(checkpoint_state)
    last_lsn = state.redo(scan.records, checkpoint_lsn)
    return Redo(state, scan, checkpoint_lsn, last_lsn, torn)


def recover(
    wal_dir: "Path | str",
    *,
    verify: bool = True,
    strict: bool = False,
    registry: MetricsRegistry | None = None,
) -> RecoveryResult:
    """Run the full recovery pass over one WAL directory.

    Raises :class:`RecoveryError` when the directory holds no usable
    checkpoint (every WAL directory starts life with one, so this
    means damage, not a fresh start), when the WAL is corrupt beyond a
    torn tail, or when replay is non-deterministic.  Verification
    failures do *not* raise — they are reported in ``violations`` so
    the caller can refuse to serve with full diagnostics.
    """
    return recover_with(
        lambda state: TransactionManager(
            state, strict=strict, registry=registry
        ),
        wal_dir,
        verify=verify,
        registry=registry,
    )


def recover_with(
    wrap: Callable[[ProtocolState], TransactionManager],
    wal_dir: "Path | str",
    *,
    verify: bool,
    registry: MetricsRegistry | None,
) -> RecoveryResult:
    """:func:`recover`, with the caller choosing the manager that is
    put over the recovered state (it is wrapped exactly once)."""
    started = time.perf_counter()
    wal_dir = Path(wal_dir)
    if not wal_dir.is_dir():
        raise RecoveryError(f"no WAL directory at {wal_dir}")
    done = redo(wal_dir)
    state = done.state
    undo = undo_in_flight(state)
    result = RecoveryResult(
        manager=wrap(state),
        state=state,
        checkpoint_lsn=done.checkpoint_lsn,
        last_lsn=done.last_lsn,
        records_replayed=done.last_lsn - done.checkpoint_lsn,
        torn_tail_truncated=done.torn_tail_truncated,
        undo=undo,
        committed=state.committed_names(),
    )
    if verify:
        result.violations = verify_recovery(done.scan, result)
    result.recovery_ms = (time.perf_counter() - started) * 1000.0
    if registry is not None:
        registry.gauge("recovery.time_ms").set(result.recovery_ms)
        registry.gauge("recovery.records_replayed").set(
            result.records_replayed
        )
        registry.counter("recovery.runs").inc()
        if not result.verified:
            registry.counter("recovery.verification_failures").inc()
    return result


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def verify_recovery(
    scan: ScanResult, result: RecoveryResult
) -> list[str]:
    """Independent checks of the recovered state; empty = verified."""
    violations: list[str] = []
    violations.extend(_check_committed_prefix(scan.records, result))
    violations.extend(_check_consistency(result))
    violations.extend(check_protocol_predicates(result.manager))
    return violations


def fold_committed(
    records: list[WalRecord], dead: set[str]
) -> tuple[list[str], dict[str, dict[str, int]], dict[str, str]]:
    """A minimal second opinion on who committed what.

    Scans raw COMMIT/UNDO_COMMIT/ABORT records (ignoring everything
    :meth:`ProtocolState.apply` tracks beyond them) and removes the
    transactions recovery's undo pass declared dead.  Returns the
    final commit order, each survivor's released values, and each
    survivor's parent.
    """
    order: list[str] = []
    released: dict[str, dict[str, int]] = {}
    parents: dict[str, str] = {}
    for record in records:
        if record.op == OP_COMMIT:
            if record.txn not in order:
                order.append(record.txn)
            released[record.txn] = dict(record.data["released"])
        elif record.op == OP_UNDO_COMMIT:
            if record.txn in order:
                order.remove(record.txn)
            released.pop(record.txn, None)
        elif record.op == OP_ABORT:
            for name in record.data["aborted"]:
                if name in order:
                    order.remove(name)
                released.pop(name, None)
        elif record.op == OP_DEFINE:
            parents[record.txn] = record.data["parent"]
    survivors = [name for name in order if name not in dead]
    return survivors, released, parents


def _check_committed_prefix(
    records: list[WalRecord], result: RecoveryResult
) -> list[str]:
    violations: list[str] = []
    state = result.state
    manager = result.manager
    dead = set(result.undo.all_dead)

    # Which transactions the WAL says finally committed.  Checkpointed
    # commits may predate the scanned records (their COMMIT lsn can be
    # below a cleaned-up segment), so the fold is seeded from the
    # checkpoint's committed set minus anything the records or undo
    # pass later retracted.
    fold_order, fold_released, fold_parents = fold_committed(
        records, dead
    )
    recovered = set(result.committed)
    replay_floor = records[0].lsn if records else None
    fold_set = set(fold_order)
    for name in list(recovered):
        txn = state.records[name]
        if name in fold_set:
            continue
        if (
            replay_floor is None
            or (txn.commit_lsn or 0) < replay_floor
        ):
            # Committed before the scanned window: the checkpoint is
            # the only witness, which is fine.
            fold_set.add(name)
        else:
            violations.append(
                f"{name} is committed after recovery but the WAL "
                "records no surviving commit for it"
            )
    for name in fold_set - recovered:
        violations.append(
            f"{name} committed durably but is not committed after "
            "recovery (committed write lost)"
        )

    # Every surviving committed transaction's logged writes must be
    # present in the recovered store, and every recovered version must
    # belong to a surviving committed transaction (or be initial).
    committed_writes: dict[tuple[str, int], tuple[str, int]] = {}
    for record in records:
        if record.op == OP_WRITE and record.txn in recovered:
            committed_writes[
                (record.data["entity"], record.data["sequence"])
            ] = (record.txn, record.data["value"])
    store = manager.database.store
    live = {
        (version.entity, version.sequence): version
        for version in store
    }
    for (entity, sequence), (txn, value) in committed_writes.items():
        version = live.get((entity, sequence))
        if version is None:
            violations.append(
                f"committed write {entity}#{sequence} by {txn} "
                "missing from recovered store"
            )
        elif version.value != value or version.author != txn:
            violations.append(
                f"recovered version {entity}#{sequence} does not "
                f"match the WAL ({version.value}@{version.author} "
                f"vs {value}@{txn})"
            )
    for (entity, sequence), version in live.items():
        author = version.author
        if author is None:
            continue
        author_state = state.records.get(author)
        if (
            author_state is None
            or author_state.phase is not TxnPhase.COMMITTED
        ):
            violations.append(
                f"uncommitted write {entity}#{sequence} by {author} "
                "visible after recovery"
            )

    # Replay takes each release from the releasing record: the logged
    # values must be what that record releases, and the root-level
    # ones, folded in commit order, must give the recovered world.  A
    # commit before the scanned window has only its record to go by.
    fold_view = manager.database.initial_state.as_dict()
    for name in result.committed:
        released = values(state.records[name].released())
        logged = fold_released.get(name, released)
        if logged != released:
            violations.append(
                f"{name}'s logged release {logged} is not what its "
                f"record releases ({released})"
            )
        if (fold_parents.get(name) or state.records[name].parent) == state.root:
            fold_view.update(logged)
    recovered_view = manager.view(manager.root)
    if fold_view != recovered_view:
        diff = {
            entity: (fold_view.get(entity), recovered_view.get(entity))
            for entity in set(fold_view) | set(recovered_view)
            if fold_view.get(entity) != recovered_view.get(entity)
        }
        violations.append(
            f"recovered root view diverges from committed prefix: {diff}"
        )
    return violations


def _check_consistency(result: RecoveryResult) -> list[str]:
    violations: list[str] = []
    database = result.manager.database
    view = result.manager.view(result.manager.root)
    if not database.constraint.evaluate(view):
        violations.append(
            "recovered world view violates the consistency "
            f"predicate {database.constraint}"
        )
    if not database.has_consistent_version_state():
        violations.append(
            "no consistent version state exists in the recovered store"
        )
    return violations


def check_protocol_predicates(
    manager: TransactionManager,
) -> list[str]:
    """Lemma 4 / Theorem 2 at every level: each non-aborted parent's
    committed children are parent-based and correct."""
    violations: list[str] = []
    for record in list(manager.iter_records()):
        if not record.children or record.phase is TxnPhase.ABORTED:
            continue
        for violation in manager.verify_parent_based(record.name):
            violations.append(f"parent-based: {violation}")
        for violation in manager.verify_correctness(record.name):
            violations.append(f"correctness: {violation}")
    return violations
