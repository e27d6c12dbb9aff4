#!/usr/bin/env python3
"""Quickstart: the three faces of the library in ~60 lines.

1. Classify a schedule against the Section-4 correctness classes.
2. Decide execution correctness for a nested transaction (Theorem 1).
3. Run two cooperating transactions under the Section-5 protocol.

Run:  python examples/quickstart.py
"""

from repro.classes import classify, figure2_region
from repro.core import (
    Domain,
    Predicate,
    Schema,
    Spec,
)
from repro.obs import RecordingTracer, render_timeline
from repro.protocol import Outcome, TransactionManager
from repro.sat import CNFFormula, lemma1_instance
from repro.schedules import Schedule
from repro.storage import Database


def classify_a_schedule() -> None:
    """The paper's Example 1: not serializable, yet acceptable."""
    schedule = Schedule.parse(
        "r1(x) w1(x) r2(x) r2(y) w2(y) r1(y) w1(y)"
    )
    membership = classify(schedule, [{"x"}, {"y"}])
    print("Example 1 schedule:", schedule)
    print("  membership:", membership)
    print("  Figure-2 region:", figure2_region(membership))
    print()


def decide_version_correctness() -> None:
    """Lemma 1 in action: version selection is SAT in disguise."""
    formula = CNFFormula.parse("a | ~b & b | c & ~a | ~c")
    instance = lemma1_instance(formula)
    witness = instance.solve_direct()
    print("SAT formula:", formula)
    print("  reduced to a 2-state database over", instance.schema.names)
    print("  witnessing version state:", witness)
    print()


def run_the_protocol() -> None:
    """Two designers cooperating without serializability."""
    schema = Schema.of("x", "y", domain=Domain.interval(0, 100))
    db = Database(
        schema, Predicate.parse("x >= 0 & y >= 0"), {"x": 10, "y": 20}
    )
    tracer = RecordingTracer()
    tm = TransactionManager(db, tracer=tracer)

    alice = tm.define(
        tm.root,
        Spec(Predicate.parse("x >= 0"), Predicate.parse("x > 10")),
        update_set={"x"},
    )
    # Bob declares he works *after* Alice (a cooperation edge).
    bob = tm.define(
        tm.root,
        Spec(Predicate.parse("x >= 0 & y >= 0"), Predicate.parse("y > 20")),
        update_set={"y"},
        predecessors=[alice],
    )
    assert tm.validate(alice).outcome is Outcome.OK
    assert tm.validate(bob).outcome is Outcome.OK

    value = tm.read(alice, "x").value
    result = tm.write(alice, "x", value + 5)
    # Bob had optimistically been assigned the old x; the protocol
    # silently re-assigned him to Alice's new version.
    print("After Alice's write, re-assigned:", result.reassigned)
    tm.commit(alice)

    print("Bob reads x =", tm.read(bob, "x").value, "(Alice's version)")
    tm.read(bob, "y")
    tm.write(bob, "y", 25)
    tm.commit(bob)
    tm.commit(tm.root)

    print("Parent-based violations:", tm.verify_parent_based(tm.root))
    print("Correctness violations: ", tm.verify_correctness(tm.root))
    print()
    print("Protocol timeline (per transaction, in ticks):")
    print(render_timeline(tracer.spans))


if __name__ == "__main__":
    classify_a_schedule()
    decide_version_correctness()
    run_the_protocol()
