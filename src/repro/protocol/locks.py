"""The protocol's lock manager — Figure 3's compatibility matrix.

Three lock modes (Section 5.1):

* ``R_v`` — *read for validation*: taken on every input-constraint item
  during the validation phase, protecting the version assignment.
* ``R`` — read: an upgrade of an ``R_v`` lock, taken per read request.
* ``W`` — write: held **only for the duration of the write operation**,
  never to end of transaction — the source of the protocol's short
  waits.

Compatibility (reconstructed from Figure 3 and the surrounding prose —
the scan's row/column alignment is ambiguous, the prose is not):

======  =====  =====  =====
held    R_v    R      W
======  =====  =====  =====
R_v     grant  grant  grant
R       grant  grant  grant
W       block  block  grant
======  =====  =====  =====

* "A write request … can never fail": ``W`` is always granted — in a
  multiversion system a write creates a *new* version, so it cannot
  disturb readers of old ones.  Two sibling writes coexist (new
  versions each).
* ``R_v``/``R`` requested while another transaction holds ``W``:
  blocked ("temporarily blocked on some writing transaction"); the
  blocking window is one write operation.  On unblocking, the
  scheduler runs re-evaluation "as if the matrix result had been
  re-eval".
* Locks are placed on the entity (the *type*), not on a version.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import LockProtocolError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import NULL_TRACER, Tracer


class LockMode(enum.Enum):
    """Figure 3's three lock modes."""

    RV = "R_v"
    R = "R"
    W = "W"

    def __str__(self) -> str:
        return self.value


class LockOutcome(enum.Enum):
    GRANTED = "granted"
    BLOCKED = "blocked"


def compatible(held: LockMode, requested: LockMode) -> bool:
    """Figure 3: only a held ``W`` blocks, and only read-side requests."""
    if held is LockMode.W and requested in (LockMode.RV, LockMode.R):
        return False
    return True


@dataclass(frozen=True, slots=True)
class LockRequest:
    """A queued (blocked) lock request."""

    txn: str
    entity: str
    mode: LockMode


@dataclass(slots=True)
class _EntityLocks:
    #: Creation rank in the table — lets the per-transaction exit path
    #: reproduce the whole-table iteration order exactly.
    ordinal: int = 0
    holders: dict[LockMode, set[str]] = field(
        default_factory=lambda: {mode: set() for mode in LockMode}
    )
    queue: list[LockRequest] = field(default_factory=list)


class LockTable:
    """Entity-level lock table with FIFO queueing of blocked reads.

    Optionally observable: with a tracer attached, blocks and queue
    grants become ``lock.block``/``lock.grant`` events; with a metrics
    registry attached, every block observes the entity's queue depth
    into the ``lock_queue_depth`` histogram (the percentile source for
    the benchmark reports).
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._entities: dict[str, _EntityLocks] = {}
        # Per-transaction reverse indexes.  ``release_all`` and
        # ``locks_of`` used to scan the whole table on every commit and
        # abort — O(entities ever locked) per transaction exit, which
        # dominated long server runs.  ``_held`` maps txn → entity →
        # modes; ``_queued`` maps txn → entity → queued-request count.
        # Both are maintained on every grant/block/release so the exit
        # path touches only the entities the transaction actually used.
        self._held: dict[str, dict[str, set[LockMode]]] = {}
        self._queued: dict[str, dict[str, int]] = {}
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._registry = registry

    def set_tracer(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def set_registry(self, registry: MetricsRegistry | None) -> None:
        self._registry = registry

    def _entry(self, entity: str) -> _EntityLocks:
        entry = self._entities.get(entity)
        if entry is None:
            entry = self._entities[entity] = _EntityLocks(
                ordinal=len(self._entities)
            )
        return entry

    # -- reverse-index bookkeeping ------------------------------------------

    def _note_grant(self, txn: str, entity: str, mode: LockMode) -> None:
        self._held.setdefault(txn, {}).setdefault(entity, set()).add(mode)

    def _note_release(self, txn: str, entity: str, mode: LockMode) -> None:
        by_entity = self._held.get(txn)
        if by_entity is None:
            return
        modes = by_entity.get(entity)
        if modes is None:
            return
        modes.discard(mode)
        if not modes:
            del by_entity[entity]
            if not by_entity:
                del self._held[txn]

    def _note_queued(self, txn: str, entity: str, delta: int) -> None:
        by_entity = self._queued.setdefault(txn, {})
        count = by_entity.get(entity, 0) + delta
        if count > 0:
            by_entity[entity] = count
        else:
            by_entity.pop(entity, None)
            if not by_entity:
                self._queued.pop(txn, None)

    # -- queries ------------------------------------------------------------

    def holds(self, txn: str, entity: str, mode: LockMode) -> bool:
        entry = self._entities.get(entity)
        return bool(entry) and txn in entry.holders[mode]

    def holders(self, entity: str, mode: LockMode) -> frozenset[str]:
        entry = self._entities.get(entity)
        if entry is None:
            return frozenset()
        return frozenset(entry.holders[mode])

    def read_side_holders(self, entity: str) -> frozenset[str]:
        """Transactions holding ``R`` or ``R_v`` on an entity.

        These are Figure 4's ``R`` array — the candidates for
        re-evaluation when a new version of the entity appears.
        """
        return self.holders(entity, LockMode.R) | self.holders(
            entity, LockMode.RV
        )

    def queued(self, entity: str) -> tuple[LockRequest, ...]:
        entry = self._entities.get(entity)
        if entry is None:
            return ()
        return tuple(entry.queue)

    def writing(self, txn: str) -> list[str]:
        """Entities ``txn`` holds ``W`` on — its writes in flight (a
        ``W`` lock lives from ``begin_write`` to ``end_write``)."""
        return [
            entity
            for entity, modes in self._held.get(txn, {}).items()
            if LockMode.W in modes
        ]

    def locks_of(self, txn: str) -> list[tuple[str, LockMode]]:
        """Every lock a transaction currently holds.

        Served from the per-transaction index — O(locks held), not
        O(entities ever locked) — in the same order the whole-table
        scan produced (entity creation order, then mode order).
        """
        by_entity = self._held.get(txn)
        if not by_entity:
            return []
        result = []
        for entity in sorted(
            by_entity, key=lambda name: self._entities[name].ordinal
        ):
            modes = by_entity[entity]
            for mode in LockMode:
                if mode in modes:
                    result.append((entity, mode))
        return result

    # -- requests --------------------------------------------------------------

    def request(
        self, txn: str, entity: str, mode: LockMode
    ) -> LockOutcome:
        """Apply Figure 3 to a lock request.

        Granted locks are recorded; blocked requests join the entity's
        FIFO queue and are granted by :meth:`release` when the
        conflicting ``W`` disappears.
        """
        entry = self._entry(entity)
        for held_mode, holders in entry.holders.items():
            blockers = holders - {txn}
            if blockers and not compatible(held_mode, mode):
                entry.queue.append(LockRequest(txn, entity, mode))
                self._note_queued(txn, entity, +1)
                if self._registry is not None:
                    self._registry.histogram(
                        "lock_queue_depth"
                    ).observe(len(entry.queue))
                if self._tracer.enabled:
                    self._tracer.event(
                        "lock.block",
                        txn,
                        entity=entity,
                        mode=str(mode),
                        held_by=sorted(blockers),
                        queue_depth=len(entry.queue),
                    )
                return LockOutcome.BLOCKED
        entry.holders[mode].add(txn)
        self._note_grant(txn, entity, mode)
        return LockOutcome.GRANTED

    def upgrade_rv_to_r(self, txn: str, entity: str) -> LockOutcome:
        """A read request: upgrade the validation lock to a read lock.

        The protocol rejects reads without a prior ``R_v`` lock ("if
        the transaction does not have a R_v-lock on the data item, then
        the read is rejected").
        """
        if not self.holds(txn, entity, LockMode.RV):
            raise LockProtocolError(
                f"{txn}: read of {entity} without a validation lock"
            )
        return self.request(txn, entity, LockMode.R)

    def release(
        self, txn: str, entity: str, mode: LockMode
    ) -> list[LockRequest]:
        """Release a lock; grant whatever the FIFO queue now admits.

        Returns the newly granted requests — the scheduler must run
        re-evaluation for each (they were blocked on a write).
        """
        entry = self._entry(entity)
        if txn not in entry.holders[mode]:
            raise LockProtocolError(
                f"{txn} does not hold a {mode} lock on {entity}"
            )
        entry.holders[mode].discard(txn)
        self._note_release(txn, entity, mode)
        return self._drain_queue(entry)

    def release_all(self, txn: str) -> list[LockRequest]:
        """Drop every lock a transaction holds (commit/abort cleanup).

        Visits only the entities the transaction holds or queues on
        (the reverse indexes), in entity creation order — the same
        entities, in the same order, the old whole-table scan touched,
        without paying for every entity the table has ever seen.
        """
        held = self._held.pop(txn, {})
        queued = self._queued.pop(txn, {})
        touched = sorted(
            set(held) | set(queued),
            key=lambda name: self._entities[name].ordinal,
        )
        granted: list[LockRequest] = []
        for entity in touched:
            entry = self._entities[entity]
            changed = False
            for mode in held.get(entity, ()):
                entry.holders[mode].discard(txn)
                changed = True
            if entity in queued:
                entry.queue = [
                    request
                    for request in entry.queue
                    if request.txn != txn
                ]
            if changed:
                granted.extend(self._drain_queue(entry))
        return granted

    def _drain_queue(self, entry: _EntityLocks) -> list[LockRequest]:
        granted: list[LockRequest] = []
        still_blocked: list[LockRequest] = []
        for request in entry.queue:
            blocked = False
            for held_mode, holders in entry.holders.items():
                if (holders - {request.txn}) and not compatible(
                    held_mode, request.mode
                ):
                    blocked = True
                    break
            if blocked:
                still_blocked.append(request)
            else:
                entry.holders[request.mode].add(request.txn)
                self._note_grant(request.txn, request.entity, request.mode)
                self._note_queued(request.txn, request.entity, -1)
                granted.append(request)
                if self._tracer.enabled:
                    self._tracer.event(
                        "lock.grant",
                        request.txn,
                        entity=request.entity,
                        mode=str(request.mode),
                    )
        entry.queue = still_blocked
        return granted


def lock_compatibility_matrix() -> dict[tuple[str, str], bool]:
    """Figure 3 as data, for documentation/tests/benchmarks."""
    return {
        (str(held), str(requested)): compatible(held, requested)
        for held in LockMode
        for requested in LockMode
    }
