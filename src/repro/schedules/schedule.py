"""Schedules — interleaved executions of read/write transactions.

A :class:`Schedule` is a total order of :class:`Operation` steps.  It
provides everything the Section-4 correctness-class testers need:

* the mono-version *reads-from* function (each read is served by the
  most recent earlier write — the standard model's overwrite rule);
* final writers per entity;
* view equivalence (same reads-from for every read step, same final
  writers);
* conflict pairs and the serial schedules it could be compared to;
* projections onto entity subsets — the decomposition PWSR/PWCSR
  apply per conjunct (the paper's Examples 3.a/3.b);
* a compact parser for the paper's figures:
  ``Schedule.parse("r1(x) w1(x) r2(x) w2(y)")``.

Schedules are immutable and hashable.  Derived structures the class
testers ask for repeatedly — programs, reads-from, final writers,
occurrence numbers, the conflict fingerprint, precedence graphs — are
memoized per instance (:meth:`Schedule.memo`); treat every returned
container as read-only.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ScheduleError
from .operations import Operation, OpType

_OP_RE = re.compile(
    r"([rwi])\s*([A-Za-z_0-9.]+)\s*\(\s*([A-Za-z_0-9.]+)\s*\)"
)
_KIND_BY_LETTER = {
    "r": OpType.READ,
    "w": OpType.WRITE,
    "i": OpType.INCREMENT,
}


class Schedule:
    """An immutable totally-ordered sequence of operations."""

    __slots__ = ("_ops", "_hash", "_memo")

    def __init__(self, operations: Iterable[Operation]) -> None:
        self._ops: tuple[Operation, ...] = tuple(operations)
        self._hash: int | None = None
        self._memo: dict[object, object] = {}

    def memo(self, key: object, factory: "Callable[[], object]") -> object:
        """Per-schedule memo cache for derived structures.

        The class testers recompute programs, reads-from maps, and
        precedence graphs many times per classification; immutability
        makes them safe to compute once.  Callers must not mutate the
        cached value.
        """
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = factory()
            return value

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        """Parse ``"r1(x) w1(x) r2(y)"`` into a schedule.

        The token format is ``r<txn>(<entity>)`` / ``w<txn>(<entity>)``;
        whitespace and commas between tokens are ignored.  This mirrors
        how the paper lays out its example schedules.
        """
        cleaned = text.replace(",", " ")
        ops: list[Operation] = []
        consumed = 0
        for match in _OP_RE.finditer(cleaned):
            if cleaned[consumed : match.start()].strip():
                raise ScheduleError(
                    f"unparseable schedule text near "
                    f"{cleaned[consumed:match.start()]!r}"
                )
            kind, txn, entity = match.groups()
            ops.append(Operation(txn, _KIND_BY_LETTER[kind], entity))
            consumed = match.end()
        if cleaned[consumed:].strip():
            raise ScheduleError(
                f"unparseable schedule text near {cleaned[consumed:]!r}"
            )
        if not ops:
            raise ScheduleError("empty schedule text")
        return cls(ops)

    @classmethod
    def serial(
        cls, programs: dict[str, Sequence[Operation]], order: Sequence[str]
    ) -> "Schedule":
        """The serial schedule running whole transactions in ``order``."""
        missing = set(order) ^ set(programs)
        if missing:
            raise ScheduleError(
                f"order and programs disagree on transactions {sorted(missing)}"
            )
        ops: list[Operation] = []
        for txn in order:
            ops.extend(programs[txn])
        return cls(ops)

    # -- basic structure -----------------------------------------------------

    @property
    def operations(self) -> tuple[Operation, ...]:
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    def __getitem__(self, index: int) -> Operation:
        return self._ops[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._ops == other._ops

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._ops)
        return self._hash

    def __str__(self) -> str:
        return " ".join(str(op) for op in self._ops)

    def __repr__(self) -> str:
        return f"Schedule({self})"

    def __getstate__(self) -> tuple[Operation, ...]:
        # Ship only the operations across process boundaries (the
        # census workers re-derive the memo cache locally).
        return self._ops

    def __setstate__(self, state: tuple[Operation, ...]) -> None:
        self._ops = state
        self._hash = None
        self._memo = {}

    @property
    def transactions(self) -> tuple[str, ...]:
        """Transaction ids in first-appearance order."""

        def build() -> tuple[str, ...]:
            seen: dict[str, None] = {}
            for op in self._ops:
                seen.setdefault(op.txn, None)
            return tuple(seen)

        return self.memo("transactions", build)

    @property
    def entities(self) -> frozenset[str]:
        return self.memo(
            "entities",
            lambda: frozenset(op.entity for op in self._ops),
        )

    def program(self, txn: str) -> tuple[Operation, ...]:
        """The operations of one transaction, in schedule order.

        Under the standard model a transaction's program *is* its
        schedule-order projection.
        """
        return tuple(op for op in self._ops if op.txn == txn)

    def programs(self) -> dict[str, tuple[Operation, ...]]:
        def build() -> dict[str, tuple[Operation, ...]]:
            result: dict[str, list[Operation]] = {}
            for op in self._ops:
                result.setdefault(op.txn, []).append(op)
            return {txn: tuple(ops) for txn, ops in result.items()}

        return self.memo("programs", build)

    def is_serial(self) -> bool:
        """No transaction interleaves with another."""
        last_seen: str | None = None
        finished: set[str] = set()
        for op in self._ops:
            if op.txn != last_seen:
                if op.txn in finished:
                    return False
                if last_seen is not None:
                    finished.add(last_seen)
                last_seen = op.txn
        return True

    # -- standard-model semantics ----------------------------------------------

    def reads_from(self) -> list[tuple[int, str | None]]:
        """Mono-version reads-from: one entry per read step.

        Returns ``(op_index, writer)`` pairs in schedule order, where
        ``writer`` is the transaction whose write the read observes
        under the standard model's overwrite rule (``None`` = the
        initial database value).  Reads observe a transaction's *own*
        earlier writes too, matching serial-schedule semantics.
        """
        last_writer: dict[str, str] = {}
        result: list[tuple[int, str | None]] = []
        for index, op in enumerate(self._ops):
            if op.is_read:
                result.append((index, last_writer.get(op.entity)))
            else:
                last_writer[op.entity] = op.txn
        return result

    def read_sources(self) -> dict[tuple[str, str, int], str | None]:
        """Reads-from keyed by (txn, entity, occurrence-number).

        Occurrence numbers count a transaction's reads of one entity in
        program order, making the mapping comparable across schedules
        with the same programs (the basis of view equivalence).
        """

        def build() -> dict[tuple[str, str, int], str | None]:
            counters: dict[tuple[str, str], int] = {}
            sources: dict[tuple[str, str, int], str | None] = {}
            last_writer: dict[str, str] = {}
            for op in self._ops:
                if op.is_read:
                    key = (op.txn, op.entity)
                    occurrence = counters.get(key, 0)
                    counters[key] = occurrence + 1
                    sources[(op.txn, op.entity, occurrence)] = (
                        last_writer.get(op.entity)
                    )
                else:
                    last_writer[op.entity] = op.txn
            return sources

        return self.memo("read_sources", build)

    def final_writers(self) -> dict[str, str]:
        """The transaction writing the surviving version of each entity."""

        def build() -> dict[str, str]:
            result: dict[str, str] = {}
            for op in self._ops:
                if op.is_write:
                    result[op.entity] = op.txn
            return result

        return self.memo("final_writers", build)

    def view_equivalent(self, other: "Schedule") -> bool:
        """Classical view equivalence (same reads, same final state).

        Both schedules must run the same transactions with the same
        programs; every read must observe the same writer; every entity
        must have the same final writer.
        """
        if self.programs() != other.programs():
            return False
        if self.read_sources() != other.read_sources():
            return False
        return self.final_writers() == other.final_writers()

    # -- conflicts ---------------------------------------------------------------

    def conflict_pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered index pairs of classically conflicting operations.

        Served by the array-encoded twin
        (:mod:`repro.schedules.fastsched`), which groups steps by
        entity so unrelated entities never meet;
        :func:`repro.reference.conflict_pairs_reference` is the direct
        quadratic transcription kept as the differential oracle.
        """
        from .fastsched import fast_of

        return iter(fast_of(self).conflict_pairs())

    def conflict_equivalent(self, other: "Schedule") -> bool:
        """Same programs and same order on all conflicting pairs."""
        if self.programs() != other.programs():
            return False
        return self.conflict_fingerprint() == other.conflict_fingerprint()

    def occurrence_numbers(self) -> tuple[int, ...]:
        """Occurrence number of every step, computed in one pass.

        ``occurrence_numbers()[i]`` counts how many earlier steps are
        identical to step ``i`` — the disambiguator for programs that
        repeat an operation.  (The old per-pair prefix rescan made
        :meth:`conflict_equivalent` cubic in the schedule length.)
        """

        def build() -> tuple[int, ...]:
            from .fastsched import fast_of

            return tuple(fast_of(self).occurrence_numbers())

        return self.memo("occurrence_numbers", build)

    def conflict_fingerprint(
        self,
    ) -> frozenset[tuple[Operation, Operation, int, int]]:
        """The order of all conflicting pairs, as a comparable set.

        Each element is ``(first, second, occ_first, occ_second)`` for a
        conflicting pair with ``first`` scheduled earlier.  Two
        schedules over the same programs are conflict equivalent iff
        their fingerprints are equal; the census also uses the
        fingerprint to recognise classification-equivalent
        interleavings.
        """

        def build() -> frozenset[tuple[Operation, Operation, int, int]]:
            numbers = self.occurrence_numbers()
            return frozenset(
                (self._ops[i], self._ops[j], numbers[i], numbers[j])
                for i, j in self.conflict_pairs()
            )

        return self.memo("conflict_fingerprint", build)

    # -- projections (for predicate-wise classes) ----------------------------------

    def project_entities(self, entities: Iterable[str]) -> "Schedule | None":
        """Keep only operations on the given entities (Examples 3.a/3.b).

        Transactions whose every operation is dropped disappear from
        the projection.  Returns ``None`` when nothing remains.

        Memoized: the predicate-wise testers (PWCSR, PWSR, PC) each
        project onto the same conjuncts, and the projected schedule
        carries its own memo cache for their serializability searches.
        """
        keep = frozenset(entities)

        def build() -> "Schedule | None":
            ops = [op for op in self._ops if op.entity in keep]
            if not ops:
                return None
            return Schedule(ops)

        return self.memo(("project_entities", keep), build)

    def project_transactions(self, txns: Iterable[str]) -> "Schedule | None":
        keep = frozenset(txns)
        ops = [op for op in self._ops if op.txn in keep]
        if not ops:
            return None
        return Schedule(ops)

    # -- serial comparisons -----------------------------------------------------------

    def serializations(self) -> Iterator[tuple[tuple[str, ...], "Schedule"]]:
        """All serial schedules over the same programs.

        Yields ``(order, serial_schedule)`` pairs — the comparison set
        for the exhaustive view-serializability test.  Exponential in
        the number of transactions, as serializability testing must be
        (the recognition problem is NP-complete).
        """
        from itertools import permutations

        programs = self.programs()
        for order in permutations(self.transactions):
            yield order, Schedule.serial(programs, order)
