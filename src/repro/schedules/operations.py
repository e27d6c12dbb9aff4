"""Read/write operations — the standard model's primitives (Section 4.1).

In the standard model a transaction is a sequence of operations drawn
from ``{read, write} × E``.  :class:`Operation` is one step of one
transaction; conflict tests for both the classical and the multiversion
notion of conflict live here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import ScheduleError


class OpType(enum.Enum):
    """Primitive access kinds.

    ``READ``/``WRITE`` are the standard model's alphabet.
    ``INCREMENT`` is the classic semantic extension the paper cites
    (§2.3, [Korth 1983]): a blind add that commutes with other
    increments.  The *classical* testers conservatively treat an
    increment as a write; the semantic tester in
    :mod:`repro.classes.semantic` exploits the commutativity.
    """

    READ = "r"
    WRITE = "w"
    INCREMENT = "i"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True, slots=True)
class Operation:
    """One step: transaction ``txn`` reads or writes ``entity``.

    ``slots=True`` matters here: operations are the densest objects in
    the system (a census run materialises millions), and the per-
    instance ``__dict__`` both doubled their footprint and slowed every
    attribute read.  The cached hash moves into a declared slot —
    excluded from ``__init__``/``repr``/comparisons so equality and
    ordering still see only the ``(txn, kind, entity)`` triple.
    """

    txn: str
    kind: OpType
    entity: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.txn:
            raise ScheduleError("operation needs a transaction id")
        if not self.entity:
            raise ScheduleError("operation needs an entity")
        # Operations are hashed constantly (conflict fingerprints,
        # occurrence counting, precedence graphs); hashing the enum
        # member on every lookup dominated census profiles, so the
        # hash is computed once at construction.
        object.__setattr__(
            self, "_hash", hash((self.txn, self.kind, self.entity))
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_read(self) -> bool:
        return self.kind is OpType.READ

    @property
    def is_write(self) -> bool:
        """Does the step install a new value?

        Increments count: the classical model has no finer category, so
        every non-read is a write to the standard testers.
        """
        return self.kind in (OpType.WRITE, OpType.INCREMENT)

    @property
    def is_increment(self) -> bool:
        return self.kind is OpType.INCREMENT

    def conflicts_with(self, other: "Operation") -> bool:
        """Classical conflict: same entity, different transactions, and
        at least one write (Section 4.3's standard-model definition).
        Increments are writes here; see
        :func:`repro.classes.semantic.semantic_conflict` for the
        commutativity-aware relation."""
        return (
            self.entity == other.entity
            and self.txn != other.txn
            and (self.is_write or other.is_write)
        )

    def __str__(self) -> str:
        return f"{self.kind}{self.txn}({self.entity})"


def R(txn: str, entity: str) -> Operation:
    """Shorthand for a read step: ``R("1", "x")`` is ``r1(x)``."""
    return Operation(txn, OpType.READ, entity)


def W(txn: str, entity: str) -> Operation:
    """Shorthand for a write step: ``W("1", "x")`` is ``w1(x)``."""
    return Operation(txn, OpType.WRITE, entity)


def I(txn: str, entity: str) -> Operation:
    """Shorthand for an increment step: ``I("1", "x")`` is ``i1(x)``."""
    return Operation(txn, OpType.INCREMENT, entity)
