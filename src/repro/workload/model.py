"""The one workload model: a transaction's spec, its steps, its script.

The paper models a transaction as a specification — input constraint
``I_t``, output condition ``O_t``, update set, ``P``-predecessors — plus
the accesses it makes.  :class:`Txn` is that, as plain JSON-friendly
data: what the fuzz harness, the cluster simulator and the closed-loop
driver (:mod:`repro.workload.driver`) execute.  :func:`predicate_text`
is the one place a generated transaction's ``I``/``O`` text is written.

:class:`TransactionScript` is the richer form the seeded generators
(:mod:`repro.workload.families`) produce and the virtual-time simulator
(:mod:`repro.sim`) runs: think times, reads, writes whose value is
derived from earlier reads (:class:`Bump`), and ≺SR groups.
:meth:`TransactionScript.to_txn` is the one conversion between them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable

from ..errors import SimulationError
from ..storage.database import Database


def predicate_text(
    entities: Iterable[str], bounds: Iterable[tuple[str, int]] = ()
) -> str:
    """A generated transaction's ``I``/``O``: ``e >= 0`` per entity.

    The conjunction mentions every entity in ``entities`` (the model
    requires ``I_t`` to mention what the transaction reads), in the
    caller's order, followed by one ``e <= high`` term per ``bounds``
    entry; ``"true"`` when there is nothing to say.
    """
    terms = [f"{entity} >= 0" for entity in entities]
    terms += [f"{entity} <= {high}" for entity, high in bounds]
    return " & ".join(terms) or "true"


@dataclass
class Txn:
    """One scripted transaction: define, validate, then ``ops``.

    ``ops`` entries are small JSON-friendly lists:
    ``["sleep", seconds]``, ``["read", entity]``,
    ``["write", entity, value]``, ``["commit"]``, ``["abort"]``, and
    from :meth:`TransactionScript.to_txn`
    ``["bump", entity, source, delta, high, duration]`` — write
    ``min(high, value read from source + delta)``, taking ``duration``
    think units.  A script without a terminal op leaves the transaction
    live — the disconnect or drain path has to clean it up.
    """

    label: str
    updates: list[str]
    input: str
    output: str
    predecessors: list[str] = field(default_factory=list)
    ops: list[list[Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Txn":
        return cls(
            label=data["label"],
            updates=list(data["updates"]),
            input=data["input"],
            output=data["output"],
            predecessors=list(data.get("predecessors", [])),
            ops=[list(op) for op in data.get("ops", [])],
        )

    @property
    def request_count(self) -> int:
        """Requests this script issues (define + validate + data ops)."""
        return 2 + sum(1 for op in self.ops if op[0] != "sleep")


@dataclass(frozen=True)
class Think:
    """Human think time between accesses."""

    duration: float


@dataclass(frozen=True)
class Read:
    entity: str


@dataclass(frozen=True)
class Bump:
    """A derived write value: ``min(high, value read from source + delta)``."""

    source: str
    delta: int
    high: int

    def __call__(self, context: dict[str, int]) -> int:
        return min(self.high, context.get(self.source, 0) + self.delta)


@dataclass(frozen=True)
class Write:
    """A write; ``value`` may be a constant or f(values-read-so-far)."""

    entity: str
    value: "int | Callable[[dict[str, int]], int]"
    duration: float = 1.0

    def resolve(self, context: dict[str, int]) -> int:
        if callable(self.value):
            return self.value(context)
        return self.value


@dataclass(frozen=True)
class Unordered:
    """A group of accesses that may execute in **any order** (≺SR).

    Section 4.2's partial-order serializability argument, made
    operational: "a scenario can exist where an item required by a
    transaction is locked … however, if partial orders are used, the
    transaction can access a different, available data item."  The
    simulator tries the group's members in turn and only parks when
    every remaining member is blocked.
    """

    steps: tuple["Read | Write", ...]

    def __post_init__(self) -> None:
        for step in self.steps:
            if not isinstance(step, (Read, Write)):
                raise SimulationError(
                    "unordered groups may contain only reads/writes"
                )
        if not self.steps:
            raise SimulationError("empty unordered group")


@dataclass
class TransactionScript:
    """One scripted transaction: its steps and cooperation edges.

    ``predecessors`` name scripts this one must follow in the nested
    partial order (used by the Section-5 protocol; classical baselines
    ignore them — they have no notion of declared cooperation).
    """

    txn_id: str
    steps: list[object]
    arrival: float = 0.0
    predecessors: tuple[str, ...] = ()

    def flat_accesses(self) -> list["Read | Write"]:
        """All read/write steps, unordered groups flattened."""
        accesses: list[Read | Write] = []
        for step in self.steps:
            if isinstance(step, (Read, Write)):
                accesses.append(step)
            elif isinstance(step, Unordered):
                accesses.extend(step.steps)
        return accesses

    @property
    def read_entities(self) -> frozenset[str]:
        return frozenset(
            step.entity
            for step in self.flat_accesses()
            if isinstance(step, Read)
        )

    @property
    def write_entities(self) -> frozenset[str]:
        return frozenset(
            step.entity
            for step in self.flat_accesses()
            if isinstance(step, Write)
        )

    @property
    def total_think(self) -> float:
        return sum(
            step.duration for step in self.steps if isinstance(step, Think)
        )

    def to_txn(self) -> Txn:
        """The script as the wire sees it, committing at the end.

        The read set becomes ``I``, the write set the update set and
        ``O``; partial-order predecessors stay script ids.  Writes must
        carry a :class:`Bump` (every generator's do).
        """
        ops: list[list[Any]] = []
        for step in self.steps:
            if isinstance(step, Think):
                ops.append(["sleep", step.duration])
                continue
            accesses = step.steps if isinstance(step, Unordered) else (step,)
            for access in accesses:
                if isinstance(access, Read):
                    ops.append(["read", access.entity])
                else:
                    bump = access.value
                    ops.append([
                        "bump", access.entity, bump.source, bump.delta,
                        bump.high, access.duration,
                    ])
        ops.append(["commit"])
        writes = sorted(self.write_entities)
        return Txn(
            label=self.txn_id,
            updates=writes,
            input=predicate_text(sorted(self.read_entities)),
            output=predicate_text(writes),
            predecessors=list(self.predecessors),
            ops=ops,
        )


@dataclass
class Workload:
    """Scripts plus a factory for fresh databases (one per scheduler).

    Each scheduler run must see its own pristine database — the factory
    rebuilds schema, constraint, and initial state deterministically.
    """

    name: str
    scripts: list[TransactionScript]
    database_factory: Callable[[], Database]
    description: str = ""
    #: How entity accesses were drawn (see
    #: :data:`repro.workload.families.KEY_DISTRIBUTIONS`); recorded in
    #: bench metadata so runs are comparable.
    key_dist: str = "uniform"

    def fresh_database(self) -> Database:
        return self.database_factory()
