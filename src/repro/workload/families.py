"""Seeded workload generators: whole workloads and per-transaction families.

The paper's motivating application is collaborative CAD: a handful of
designers running **long-duration transactions** whose cost is
dominated by human think time, touching design objects grouped into
modules (the consistency constraint's conjuncts).  The paper has no
machine evaluation, so :func:`cad_workload` is the documented
substitution: a seeded generator producing workloads with the
structural properties the paper argues about — think-time ≫
access-time, module locality, occasional cross-module access, and
explicit cooperation edges (partial-order predecessors).
:func:`oltp_workload` generates the classical contrast: short
transactions with no think time, where 2PL is perfectly adequate.

The per-transaction families build one
:class:`~repro.workload.model.Txn` over the fixed :data:`ENTITIES`
schema: :func:`fuzz_txn` for the fuzzer, and the :data:`FAMILIES`
table (:func:`mixed_txn`, :func:`hot_key_txn`, :func:`cad_txn`,
:func:`cascade_txn`, :func:`herd_txn`) for the cluster simulator.
Every generator draws only from the ``random.Random`` it is handed (or
seeds), in a fixed order, so a seed replays byte-identically.
"""

from __future__ import annotations

import random
from typing import Any, Callable

from ..core.entities import Domain, Entity, Schema
from ..core.predicates import Atom, Clause, Predicate
from ..errors import SimulationError
from ..storage.database import Database
from .model import (
    Bump,
    Read,
    Think,
    TransactionScript,
    Txn,
    Workload,
    Write,
    predicate_text,
)

#: The fuzz / cluster-simulator schema: three integer entities.
ENTITIES = ("x", "y", "z")

#: Entity-selection distributions the generators understand.
KEY_DISTRIBUTIONS = ("uniform", "zipf")

#: Zipf skew exponent: weight of the rank-``k`` entity ∝ 1/(k+1)^s.
ZIPF_EXPONENT = 1.2


def _pick_entity(
    rng: random.Random, pool: list[str], key_dist: str
) -> str:
    """One entity draw under the configured key distribution.

    ``uniform`` is *exactly* the historical ``rng.choice(pool)`` — same
    call, same stream — so old seeds replay byte-identically.  ``zipf``
    spends one ``rng.random()`` draw on an inverse-CDF walk over
    rank-weighted entities (the pool's order is the rank order), making
    low-rank entities hot: the contention-skew knob.
    """
    if key_dist == "uniform":
        return rng.choice(pool)
    weights = [
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))
    ]
    point = rng.random() * sum(weights)
    cumulative = 0.0
    for entity, weight in zip(pool, weights):
        cumulative += weight
        if point <= cumulative:
            return entity
    return pool[-1]


def _module_schema(
    num_modules: int, entities_per_module: int, high: int
) -> tuple[Schema, Predicate, dict[str, int], list[list[str]]]:
    """Schema + module-structured CNF constraint + initial state."""
    modules: list[list[str]] = []
    entities: list[Entity] = []
    for module in range(num_modules):
        names = [
            f"m{module}_e{index}" for index in range(entities_per_module)
        ]
        modules.append(names)
        entities.extend(
            Entity(name, Domain.interval(0, high)) for name in names
        )
    schema = Schema(entities)
    # One conjunct per module: every entity non-negative.  Trivially
    # satisfiable, but it *mentions* exactly the module's entities, so
    # the constraint's objects are the modules — the structure PWSR and
    # the protocol's conjunct decomposition exploit.
    clauses = []
    for names in modules:
        for name in names:
            clauses.append(Clause.of(Atom.of(name, ">=", 0)))
    # Group per module: conjuncts above are single-entity; add one
    # module-wide disjunctive clause so each module forms one object.
    for names in modules:
        clauses.append(
            Clause(tuple(Atom.of(name, ">=", 0) for name in names))
        )
    constraint = Predicate(clauses)
    initial = {name: 1 for names in modules for name in names}
    return schema, constraint, initial, modules


def cad_workload(
    num_designers: int = 6,
    num_modules: int = 3,
    entities_per_module: int = 4,
    accesses_per_txn: int = 6,
    think_time: float = 100.0,
    write_ratio: float = 0.5,
    cross_module_probability: float = 0.2,
    cooperation_probability: float = 0.3,
    write_duration: float = 1.0,
    arrival_spread: float = 10.0,
    value_high: int = 10_000,
    seed: int = 0,
    key_dist: str = "uniform",
) -> Workload:
    """A collaborative-design workload of long-duration transactions.

    Each designer's transaction works mostly within a home module,
    occasionally reaching across (``cross_module_probability``), with
    ``think_time`` between accesses — the regime where lock-holding
    protocols make humans wait for humans.  With probability
    ``cooperation_probability`` a designer declares an earlier designer
    as partial-order predecessor (a cooperation edge the Section-5
    protocol honours).  ``key_dist`` skews which entity each access
    picks *within* the chosen module (``uniform`` keeps the historical
    stream; ``zipf`` concentrates contention on low-rank entities).
    """
    if num_designers < 1:
        raise SimulationError("need at least one designer")
    if key_dist not in KEY_DISTRIBUTIONS:
        raise SimulationError(
            f"unknown key distribution {key_dist!r} "
            f"(choose from {KEY_DISTRIBUTIONS})"
        )
    rng = random.Random(seed)
    schema, constraint, initial, modules = _module_schema(
        num_modules, entities_per_module, value_high
    )

    scripts: list[TransactionScript] = []
    for index in range(num_designers):
        txn_id = f"D{index}"
        home = modules[index % num_modules]
        steps: list[object] = []
        read_so_far: list[str] = []
        for __ in range(accesses_per_txn):
            steps.append(
                Think(rng.uniform(0.5 * think_time, 1.5 * think_time))
            )
            if rng.random() < cross_module_probability:
                pool = modules[rng.randrange(num_modules)]
            else:
                pool = home
            entity = _pick_entity(rng, pool, key_dist)
            if rng.random() < write_ratio and read_so_far:
                base = rng.choice(read_so_far)
                steps.append(
                    Write(
                        entity,
                        Bump(base, rng.randrange(1, 5), value_high),
                        duration=write_duration,
                    )
                )
            else:
                steps.append(Read(entity))
                read_so_far.append(entity)
        predecessors: tuple[str, ...] = ()
        if index > 0 and rng.random() < cooperation_probability:
            predecessors = (f"D{rng.randrange(index)}",)
        scripts.append(
            TransactionScript(
                txn_id,
                steps,
                arrival=rng.uniform(0, arrival_spread),
                predecessors=predecessors,
            )
        )

    def factory() -> Database:
        return Database(schema, constraint, dict(initial))

    return Workload(
        name=f"cad(designers={num_designers}, think={think_time})",
        scripts=scripts,
        database_factory=factory,
        description=(
            "long-duration collaborative design transactions with "
            "module locality and cooperation edges"
        ),
        key_dist=key_dist,
    )


def oltp_workload(
    num_transactions: int = 20,
    num_modules: int = 2,
    entities_per_module: int = 4,
    accesses_per_txn: int = 4,
    write_ratio: float = 0.5,
    write_duration: float = 1.0,
    arrival_spread: float = 40.0,
    value_high: int = 10_000,
    seed: int = 0,
    key_dist: str = "uniform",
) -> Workload:
    """Short data-processing transactions (no think time).

    The regime the classical protocols were built for; used to show the
    paper's protocol does not regress it.
    """
    base = cad_workload(
        num_designers=num_transactions,
        num_modules=num_modules,
        entities_per_module=entities_per_module,
        accesses_per_txn=accesses_per_txn,
        think_time=0.0,
        write_ratio=write_ratio,
        cross_module_probability=0.5,
        cooperation_probability=0.0,
        write_duration=write_duration,
        arrival_spread=arrival_spread,
        value_high=value_high,
        seed=seed,
        key_dist=key_dist,
    )
    base.name = f"oltp(transactions={num_transactions})"
    base.description = "short data-processing transactions, no think time"
    for script in base.scripts:
        script.txn_id = script.txn_id.replace("D", "T")
    return base


def build_workload(
    kind: str = "cad",
    transactions: int = 16,
    think: float = 0.0,
    seed: int = 0,
    key_dist: str = "uniform",
) -> Workload:
    """The workloads ``repro serve`` and ``repro loadgen`` share.

    Both commands must be given the same kind/seed/key-dist so the
    server's database schema matches the scripts' entities and replay
    draws the same access sequence.
    """
    if kind == "cad":
        return cad_workload(
            num_designers=transactions,
            think_time=think,
            seed=seed,
            key_dist=key_dist,
        )
    if kind == "oltp":
        return oltp_workload(
            num_transactions=transactions, seed=seed, key_dist=key_dist
        )
    raise ValueError(
        f"unknown workload kind {kind!r} (choose from ('cad', 'oltp'))"
    )


# ---------------------------------------------------------------------------
# Per-transaction families over ENTITIES (fuzzer and cluster simulator)
# ---------------------------------------------------------------------------


def _sleep(rng: random.Random, think_max: float) -> "list[Any]":
    return ["sleep", round(rng.uniform(0.0, think_max), 4)]


def fuzz_txn(
    rng: random.Random,
    label: str,
    earlier: "list[str]",
    think_max: float,
) -> Txn:
    """The fuzzer's shape: random reads, writes, tight bounds, terminals."""
    reads = [e for e in ENTITIES if rng.random() < 0.45]
    updates = [e for e in ENTITIES if rng.random() < 0.4]
    # The input constraint must mention every entity the script reads
    # (reads need an RV lock, granted at validate over the input set).
    input_bounds = []
    if reads and rng.random() < 0.25:
        # A tight bound: satisfiable only if a small-enough version
        # exists, so some validations fail and abort (on purpose).
        input_bounds.append((rng.choice(reads), rng.randint(0, 2)))
    output_bounds = []
    if updates and rng.random() < 0.2:
        # Occasionally impossible given the values we write: the
        # commit fails its output predicate and the script aborts.
        output_bounds.append((rng.choice(updates), rng.randint(0, 2)))
    predecessors = []
    if earlier and rng.random() < 0.35:
        predecessors.append(rng.choice(earlier))
    ops: list[list[Any]] = []
    for entity in reads:
        if rng.random() < 0.5:
            ops.append(_sleep(rng, think_max))
        ops.append(["read", entity])
    for entity in updates:
        if rng.random() < 0.5:
            ops.append(_sleep(rng, think_max))
        ops.append(["write", entity, rng.randint(0, 9)])
    roll = rng.random()
    if roll < 0.78:
        ops.append(["commit"])
    elif roll < 0.9:
        ops.append(["abort"])
    # else: no terminal — leave the transaction for disconnect/drain.
    return Txn(
        label=label,
        updates=updates,
        input=predicate_text(reads, input_bounds),
        output=predicate_text(updates, output_bounds),
        predecessors=predecessors,
        ops=ops,
    )


def mixed_txn(
    rng: random.Random,
    label: str,
    *,
    earlier: "list[str]",
    think_max: float,
    **_: Any,
) -> Txn:
    """The fuzz shape without bounds: random reads, writes, terminals."""
    reads = [e for e in ENTITIES if rng.random() < 0.45]
    updates = [e for e in ENTITIES if rng.random() < 0.5] or [
        rng.choice(ENTITIES)
    ]
    predecessors = []
    if earlier and rng.random() < 0.3:
        predecessors.append(rng.choice(earlier))
    ops: list[list[Any]] = []
    for entity in reads:
        if think_max > 0 and rng.random() < 0.5:
            ops.append(_sleep(rng, think_max))
        ops.append(["read", entity])
    for entity in updates:
        if think_max > 0 and rng.random() < 0.5:
            ops.append(_sleep(rng, think_max))
        ops.append(["write", entity, rng.randint(0, 9)])
    ops.append(["abort"] if rng.random() < 0.12 else ["commit"])
    return Txn(
        label=label,
        updates=updates,
        input=predicate_text(reads),
        output=predicate_text(updates),
        predecessors=predecessors,
        ops=ops,
    )


def hot_key_txn(
    rng: random.Random, label: str, *, think_max: float, **_: Any
) -> Txn:
    """Everyone reads and rewrites ``x``: maximal write-write conflict."""
    ops: list[list[Any]] = [["read", "x"]]
    if think_max > 0:
        ops.append(_sleep(rng, think_max))
    ops.append(["write", "x", rng.randint(0, 9)])
    ops.append(["commit"])
    return Txn(
        label=label,
        updates=["x"],
        input=predicate_text(["x"]),
        output=predicate_text(["x"]),
        ops=ops,
    )


def cad_txn(
    rng: random.Random,
    label: str,
    *,
    think_max: float,
    client: int,
    **_: Any,
) -> Txn:
    """Even clients: a long CAD-style reader-then-writer; odd clients
    its short foil, :func:`herd_txn`."""
    if client % 2:
        return herd_txn(rng, label)
    ops: list[list[Any]] = []
    for entity in ENTITIES:
        ops.append(_sleep(rng, think_max))
        ops.append(["read", entity])
    target = rng.choice(ENTITIES)
    ops.append(_sleep(rng, think_max))
    ops.append(["write", target, rng.randint(0, 9)])
    ops.append(["commit"])
    return Txn(
        label=label,
        updates=[target],
        input=predicate_text(ENTITIES),
        output=predicate_text([target]),
        ops=ops,
    )


def cascade_txn(
    rng: random.Random,
    label: str,
    *,
    earlier: "list[str]",
    think_max: float,
    client: int,
    index: int,
    **_: Any,
) -> Txn:
    """Writers that abort late (every third ``client + index`` slot)
    vs. dependents that read their entity."""
    entity = rng.choice(ENTITIES)
    if (client + index) % 3 == 0:
        return Txn(
            label=label,
            updates=[entity],
            input=predicate_text(()),
            output=predicate_text([entity]),
            ops=[
                ["write", entity, rng.randint(0, 9)],
                _sleep(rng, max(think_max, 0.02) * 3),
                ["abort"],
            ],
        )
    predecessors = [rng.choice(earlier)] if earlier else []
    return Txn(
        label=label,
        updates=[entity],
        input=predicate_text([entity]),
        output=predicate_text([entity]),
        predecessors=predecessors,
        ops=[
            ["read", entity],
            _sleep(rng, max(think_max, 0.02)),
            ["write", entity, rng.randint(0, 9)],
            ["commit"],
        ],
    )


def herd_txn(rng: random.Random, label: str, **_: Any) -> Txn:
    """One blind point write: with zero think time, a BUSY stampede."""
    entity = rng.choice(ENTITIES)
    return Txn(
        label=label,
        updates=[entity],
        input=predicate_text(()),
        output=predicate_text([entity]),
        ops=[["write", entity, rng.randint(0, 9)], ["commit"]],
    )


#: The cluster simulator's workload kinds.  Each family is called once
#: per scripted transaction as ``family(rng, label, earlier=...,
#: think_max=..., client=..., index=...)`` — the labels scripted so far,
#: the scenario's think-time ceiling, and the transaction's slot — and
#: takes the keywords it needs; adding a kind is adding a row.
FAMILIES: "dict[str, Callable[..., Txn]]" = {
    "mixed": mixed_txn,
    "hot_key": hot_key_txn,
    "cad": cad_txn,
    "cascade": cascade_txn,
    "herd": herd_txn,
}
