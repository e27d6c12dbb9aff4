"""Array-encoded schedules — the hot-path twin of :class:`Schedule`.

The object model (:mod:`repro.schedules.schedule`) hashes an
:class:`~repro.schedules.operations.Operation` triple for every
conflict probe and rescans the whole operation list quadratically to
enumerate conflicting pairs.  That is the right shape for an oracle —
it transcribes Section 4.3 directly — but it dominates profiles the
moment schedules are classified in bulk (the census) or on the live
path (the fuzzer's classifier-lattice oracle, ``repro recover
--verify``).

:class:`FastSchedule` re-encodes a schedule as parallel ``int`` arrays:

* transaction names are interned to dense ids in **first-appearance
  order** (the same order :attr:`Schedule.transactions` reports);
* entities are interned the same way;
* each step is then ``(txn_ids[i], kinds[i], entity_ids[i])`` where
  ``kinds[i]`` is 0 for a read and non-zero for the write-like steps
  (write = 1, increment = 2 — the classical testers treat both as
  writes, mirroring :attr:`Operation.is_write`).

Conflict enumeration groups steps by entity first, so the work is
O(sum over entities of pairs-on-that-entity) instead of O(n²) over the
whole schedule; the precedence graph needs only one pass per entity
over accumulated reader/writer sets.  The recovery predicates (RC /
ACA / ST) become single passes over the arrays with ``O(1)`` commit-
position lookups.

Equivalence contract
--------------------

Every method here must return *exactly* what the object path returns —
same sets, same dict contents, same booleans.  The object
implementations are kept callable (``conflict_pairs_reference`` and
``conflict_graph_reference`` in :mod:`repro.reference`, the predicate
trio in :mod:`repro.schedules.recovery`) precisely so the differential tests in
``tests/schedules/test_fastsched.py`` can hold the two paths against
each other on generated schedules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .operations import Operation, OpType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .recovery import CommittedSchedule
    from .schedule import Schedule

_KIND_CODES = {OpType.READ: 0, OpType.WRITE: 1, OpType.INCREMENT: 2}
_KINDS_BY_CODE = (OpType.READ, OpType.WRITE, OpType.INCREMENT)


class FastSchedule:
    """Parallel-array encoding of one schedule.

    Instances are immutable once built; derived arrays are computed
    lazily and cached.  Build via :meth:`from_schedule` (the memoized
    accessor :func:`fast_of` is cheaper when the schedule may be
    encoded repeatedly).
    """

    __slots__ = (
        "txns",
        "entities",
        "txn_ids",
        "kinds",
        "entity_ids",
        "_txn_index",
        "_entity_index",
        "_by_entity",
        "_occurrences",
        "_conflict_pairs",
        "_graph_ids",
    )

    def __init__(self, operations: "tuple[Operation, ...]") -> None:
        txn_index: dict[str, int] = {}
        entity_index: dict[str, int] = {}
        txn_ids: list[int] = []
        kinds: list[int] = []
        entity_ids: list[int] = []
        for op in operations:
            txn_id = txn_index.setdefault(op.txn, len(txn_index))
            entity_id = entity_index.setdefault(
                op.entity, len(entity_index)
            )
            txn_ids.append(txn_id)
            kinds.append(_KIND_CODES[op.kind])
            entity_ids.append(entity_id)
        self.txns: tuple[str, ...] = tuple(txn_index)
        self.entities: tuple[str, ...] = tuple(entity_index)
        self.txn_ids = txn_ids
        self.kinds = kinds
        self.entity_ids = entity_ids
        self._txn_index = txn_index
        self._entity_index = entity_index
        self._by_entity: list[list[int]] | None = None
        self._occurrences: list[int] | None = None
        self._conflict_pairs: list[tuple[int, int]] | None = None
        self._graph_ids: list[set[int]] | None = None

    @classmethod
    def from_schedule(cls, schedule: "Schedule") -> "FastSchedule":
        return cls(schedule.operations)

    def __len__(self) -> int:
        return len(self.txn_ids)

    def operation(self, index: int) -> Operation:
        """Decode step ``index`` back to the object model."""
        return Operation(
            self.txns[self.txn_ids[index]],
            _KINDS_BY_CODE[self.kinds[index]],
            self.entities[self.entity_ids[index]],
        )

    # -- grouping -----------------------------------------------------

    def by_entity(self) -> "list[list[int]]":
        """Step indexes grouped per entity id, in schedule order."""
        if self._by_entity is None:
            groups: list[list[int]] = [[] for _ in self.entities]
            for index, entity_id in enumerate(self.entity_ids):
                groups[entity_id].append(index)
            self._by_entity = groups
        return self._by_entity

    # -- conflicts ----------------------------------------------------

    def conflict_pairs(self) -> "list[tuple[int, int]]":
        """All classically conflicting index pairs, ``(i, j)`` with
        ``i < j``, sorted lexicographically (the order the object
        generator yields).

        Grouping by entity first means unrelated entities never meet:
        the cost is quadratic only *within* an entity's access list,
        which is the true size of the conflict relation.
        """
        if self._conflict_pairs is None:
            txn_ids = self.txn_ids
            kinds = self.kinds
            pairs: list[tuple[int, int]] = []
            for indexes in self.by_entity():
                count = len(indexes)
                for a in range(count):
                    i = indexes[a]
                    txn_i = txn_ids[i]
                    write_i = kinds[i] != 0
                    for b in range(a + 1, count):
                        j = indexes[b]
                        if txn_ids[j] == txn_i:
                            continue
                        if write_i or kinds[j] != 0:
                            pairs.append((i, j))
            pairs.sort()
            self._conflict_pairs = pairs
        return self._conflict_pairs

    def occurrence_numbers(self) -> "list[int]":
        """How many earlier steps are identical to each step."""
        if self._occurrences is None:
            counts: dict[tuple[int, int, int], int] = {}
            numbers: list[int] = []
            for txn_id, kind, entity_id in zip(
                self.txn_ids, self.kinds, self.entity_ids
            ):
                key = (txn_id, kind, entity_id)
                seen = counts.get(key, 0)
                counts[key] = seen + 1
                numbers.append(seen)
            self._occurrences = numbers
        return self._occurrences

    def conflict_fingerprint(
        self,
    ) -> "frozenset[tuple[Operation, Operation, int, int]]":
        """Identical to :meth:`Schedule.conflict_fingerprint`.

        Decoded to :class:`Operation` tuples because fingerprints are
        compared *across* schedules (census equivalence buckets), and
        per-schedule interned ids are not stable across interleavings
        of the same programs.
        """
        numbers = self.occurrence_numbers()
        return frozenset(
            (
                self.operation(i),
                self.operation(j),
                numbers[i],
                numbers[j],
            )
            for i, j in self.conflict_pairs()
        )

    def conflict_graph_ids(self) -> "list[set[int]]":
        """Precedence adjacency over txn ids: ``j in out[i]`` iff some
        step of ``txns[i]`` conflicts with and precedes a step of
        ``txns[j]``.

        One pass per entity, carrying the sets of transactions that
        have read / written the entity so far — every earlier writer
        precedes any later accessor, and every earlier reader precedes
        any later writer.  O(steps × live transactions) instead of
        O(steps²).
        """
        if self._graph_ids is None:
            txn_ids = self.txn_ids
            kinds = self.kinds
            adjacency: list[set[int]] = [set() for _ in self.txns]
            for indexes in self.by_entity():
                readers: set[int] = set()
                writers: set[int] = set()
                for i in indexes:
                    txn = txn_ids[i]
                    for writer in writers:
                        if writer != txn:
                            adjacency[writer].add(txn)
                    if kinds[i] != 0:
                        for reader in readers:
                            if reader != txn:
                                adjacency[reader].add(txn)
                        writers.add(txn)
                    else:
                        readers.add(txn)
            self._graph_ids = adjacency
        return self._graph_ids

    def conflict_graph(self) -> "dict[str, set[str]]":
        """The precedence graph decoded to names — same dict the
        object builder in :mod:`repro.classes.conflict` produces."""
        txns = self.txns
        return {
            txns[i]: {txns[j] for j in out}
            for i, out in enumerate(self.conflict_graph_ids())
        }

    # -- standard-model semantics ------------------------------------

    def read_sources_ids(self) -> "Iterator[tuple[int, int, int, int]]":
        """``(index, reader_id, entity_id, writer_id)`` per read, with
        ``writer_id == -1`` for the initial database value — the
        mono-version overwrite rule in id space."""
        last_writer: list[int] = [-1] * len(self.entities)
        for index, kind in enumerate(self.kinds):
            entity_id = self.entity_ids[index]
            if kind == 0:
                yield (
                    index,
                    self.txn_ids[index],
                    entity_id,
                    last_writer[entity_id],
                )
            else:
                last_writer[entity_id] = self.txn_ids[index]

    def final_writers(self) -> "dict[str, str]":
        last: dict[int, int] = {}
        for index, kind in enumerate(self.kinds):
            if kind != 0:
                last[self.entity_ids[index]] = self.txn_ids[index]
        return {
            self.entities[entity_id]: self.txns[txn_id]
            for entity_id, txn_id in last.items()
        }


def fast_of(schedule: "Schedule") -> FastSchedule:
    """The memoized :class:`FastSchedule` twin of a schedule."""
    return schedule.memo(
        "fastsched", lambda: FastSchedule.from_schedule(schedule)
    )


# -- recovery predicates, array form ------------------------------------


def _last_op_indexes(fast: FastSchedule) -> "list[int]":
    last = [-1] * len(fast.txns)
    for index, txn_id in enumerate(fast.txn_ids):
        last[txn_id] = index
    return last


def _commit_positions(
    fast: FastSchedule, commit_order: "tuple[str, ...]"
) -> "list[int]":
    positions = [0] * len(fast.txns)
    for position, name in enumerate(commit_order):
        positions[fast._txn_index[name]] = position
    return positions


def fast_is_recoverable(committed: "CommittedSchedule") -> bool:
    """RC, single pass: readers commit after their writers."""
    fast = fast_of(committed.schedule)
    position = _commit_positions(fast, committed.commit_order)
    for __, reader, ___, writer in fast.read_sources_ids():
        if writer < 0 or writer == reader:
            continue
        if position[writer] > position[reader]:
            return False
    return True


def fast_avoids_cascading_aborts(committed: "CommittedSchedule") -> bool:
    """ACA, single pass: only committed data is read."""
    fast = fast_of(committed.schedule)
    position = _commit_positions(fast, committed.commit_order)
    last_op = _last_op_indexes(fast)
    for index, reader, ___, writer in fast.read_sources_ids():
        if writer < 0 or writer == reader:
            continue
        if position[writer] > position[reader]:
            return False
        if last_op[writer] > index:
            return False  # writer still active at read time
    return True


def fast_is_strict(committed: "CommittedSchedule") -> bool:
    """ST, single pass: no access to uncommitted writes."""
    fast = fast_of(committed.schedule)
    position = _commit_positions(fast, committed.commit_order)
    last_op = _last_op_indexes(fast)
    last_writer = [-1] * len(fast.entities)
    for index, kind in enumerate(fast.kinds):
        entity_id = fast.entity_ids[index]
        txn = fast.txn_ids[index]
        writer = last_writer[entity_id]
        if (
            writer >= 0
            and writer != txn
            and (
                position[writer] > position[txn]
                or last_op[writer] > index
            )
        ):
            return False
        if kind != 0:
            last_writer[entity_id] = txn
    return True


def fast_recovery_profile(
    committed: "CommittedSchedule",
) -> "dict[str, bool]":
    """RC/ACA/ST membership in one call, on the array encoding."""
    return {
        "RC": fast_is_recoverable(committed),
        "ACA": fast_avoids_cascading_aborts(committed),
        "ST": fast_is_strict(committed),
    }
