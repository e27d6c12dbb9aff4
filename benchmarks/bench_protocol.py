"""Experiments F3, F4, L4, T2 — the Section-5 protocol.

F3: the Figure-3 lock compatibility matrix, behaviourally.
F4: Figure-4 re-evaluation — abort on read, re-assign on validation.
L4: protocol runs are parent-based executions.
T2: protocol runs are correct executions.
"""

from __future__ import annotations

import random

from repro.core import Domain, Predicate, Schema, Spec
from repro.protocol import (
    LockMode,
    LockTable,
    Outcome,
    TransactionManager,
    TxnPhase,
    lock_compatibility_matrix,
)
from repro.storage import Database

from conftest import report


def _database(entities=("x", "y", "z"), initial=10):
    schema = Schema.of(*entities, domain=Domain.interval(0, 100_000))
    constraint = Predicate(
        tuple(
            Predicate.parse(f"{name} >= 0").clauses[0]
            for name in entities
        )
    )
    return Database(
        schema, constraint, {name: initial for name in entities}
    )


def _spec(i="true", o="true"):
    return Spec(Predicate.parse(i), Predicate.parse(o))


def test_f3_lock_matrix(benchmark):
    matrix = lock_compatibility_matrix()
    # The reconstructed Figure 3.
    assert matrix == {
        ("R_v", "R_v"): True,
        ("R_v", "R"): True,
        ("R_v", "W"): True,
        ("R", "R_v"): True,
        ("R", "R"): True,
        ("R", "W"): True,
        ("W", "R_v"): False,
        ("W", "R"): False,
        ("W", "W"): True,
    }

    def lock_churn():
        table = LockTable()
        for index in range(200):
            txn = f"t.{index % 8}"
            table.request(txn, "x", LockMode.RV)
            table.request(txn, "x", LockMode.W)
            table.release(txn, "x", LockMode.W)
        return table

    benchmark(lock_churn)
    report(
        "F3: lock compatibility matrix (held × requested)",
        "\n".join(
            f"  held {held:3s} req {req:3s} -> "
            f"{'grant' if ok else 'block+re-eval'}"
            for (held, req), ok in sorted(matrix.items())
        ),
    )


def test_f4_reeval_scenarios(benchmark):
    def run_scenarios():
        db = _database()
        tm = TransactionManager(db)
        # Scenario A: validating successor is re-assigned.
        pred = tm.define(tm.root, _spec(), {"x"})
        validating = tm.define(
            tm.root, _spec("x >= 0"), set(), predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(validating)
        result_a = tm.write(pred, "x", 42)
        # Scenario B: successor that already read is aborted.
        pred2 = tm.define(tm.root, _spec(), {"y"})
        reader = tm.define(
            tm.root, _spec("y >= 0"), set(), predecessors=[pred2]
        )
        tm.validate(pred2)
        tm.validate(reader)
        tm.read(reader, "y")
        result_b = tm.write(pred2, "y", 43)
        return validating, result_a, reader, result_b, tm

    validating, result_a, reader, result_b, tm = benchmark(run_scenarios)
    assert validating in result_a.reassigned
    assert tm.assigned_versions(validating)["x"].value == 42
    assert reader in result_b.aborted
    assert tm.phase(reader) is TxnPhase.ABORTED


def _random_protocol_run(seed: int):
    """A randomized protocol session; returns the manager."""
    rng = random.Random(seed)
    entities = ("x", "y", "z")
    db = _database(entities)
    tm = TransactionManager(db)
    live: list[str] = []
    for index in range(10):
        reads = rng.sample(entities, rng.randint(1, 2))
        writes = set(rng.sample(entities, rng.randint(0, 2)))
        constraint = " & ".join(f"{e} >= 0" for e in reads)
        predecessors = (
            [rng.choice(live)]
            if live and rng.random() < 0.4
            else []
        )
        predecessors = [
            p for p in predecessors
            if tm.phase(p) is not TxnPhase.ABORTED
        ]
        txn = tm.define(
            tm.root, _spec(constraint), writes,
            predecessors=predecessors,
        )
        if tm.validate(txn).outcome is not Outcome.OK:
            continue
        live.append(txn)
        for entity in reads:
            if tm.phase(txn) is not TxnPhase.VALIDATED:
                break
            tm.read(txn, entity)
        for entity in writes:
            if tm.phase(txn) is not TxnPhase.VALIDATED:
                break
            tm.write(txn, entity, rng.randint(0, 1000))
    # Commit whatever can commit, in definition order, repeatedly.
    for _ in range(3):
        for txn in live:
            if tm.phase(txn) is TxnPhase.VALIDATED:
                tm.commit(txn)
    return tm


def test_l4_parent_based_property(benchmark):
    def run_many():
        managers = [_random_protocol_run(seed) for seed in range(12)]
        return managers

    managers = benchmark.pedantic(run_many, rounds=1, iterations=1)
    committed = 0
    for tm in managers:
        violations = tm.verify_parent_based(tm.root)
        assert violations == [], violations
        committed += sum(
            1
            for child in tm.children_of(tm.root)
            if tm.phase(child) is TxnPhase.COMMITTED
        )
    assert committed > 40  # the property was exercised for real
    report(
        "L4: parent-based verification over randomized runs",
        f"  12 runs, {committed} committed transactions, 0 violations",
    )


def test_t2_correctness_property(benchmark):
    def run_many():
        return [_random_protocol_run(seed + 100) for seed in range(12)]

    managers = benchmark.pedantic(run_many, rounds=1, iterations=1)
    for tm in managers:
        violations = tm.verify_correctness(tm.root)
        assert violations == [], violations


def test_protocol_throughput(benchmark):
    """Micro-benchmark: one full define/validate/read/write/commit."""

    db = _database()
    tm = TransactionManager(db)
    counter = [0]

    def one_transaction():
        counter[0] += 1
        txn = tm.define(tm.root, _spec("x >= 0"), {"y"})
        tm.validate(txn)
        tm.read(txn, "x")
        tm.write(txn, "y", counter[0] % 1000)
        tm.commit(txn)

    benchmark(one_transaction)
