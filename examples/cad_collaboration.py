#!/usr/bin/env python3
"""A collaborative CAD session under the Section-5 protocol.

Recreates the paper's motivating scenario (Sections 1–2, Figure 1):
a chief designer's long transaction nests subtransactions handed to
collaborators; subtransactions see intermediate (non-serializable)
states, yet every input constraint holds at read time and the design's
consistency constraint holds at the end.

The design: a bracket with a bolt circle.  Consistency constraint:

* the bolt hole diameter is smaller than the bolt circle diameter;
* the bracket width accommodates the bolt circle;
* stress relief: thickness at least 3.

Run:  python examples/cad_collaboration.py
"""

from repro.core import Domain, Predicate, Schema, Spec
from repro.obs import RecordingTracer, render_timeline
from repro.protocol import Outcome, TransactionManager
from repro.storage import Database


def build_database() -> Database:
    schema = Schema.of(
        "hole_d",  # bolt hole diameter
        "circle_d",  # bolt circle diameter
        "width",  # bracket width
        "thick",  # bracket thickness
        domain=Domain.interval(1, 500),
    )
    constraint = Predicate.parse(
        "hole_d < circle_d & circle_d < width & thick >= 3"
    )
    return Database(
        schema,
        constraint,
        {"hole_d": 8, "circle_d": 40, "width": 60, "thick": 5},
    )


def main() -> None:
    db = build_database()
    tracer = RecordingTracer()
    tm = TransactionManager(db, tracer=tracer)
    print("Initial design:", dict(db.initial_state))
    print("Constraint:   ", db.constraint)
    print()

    # The chief designer's transaction: rework the bolt circle.  Its
    # postcondition is the full consistency constraint; its
    # subtransactions are allowed to pass through inconsistent
    # intermediate states (Section 2.3).
    chief = tm.define(
        tm.root,
        Spec(Predicate.true(), db.constraint),
        update_set={"hole_d", "circle_d", "width"},
    )
    tm.validate(chief)

    # Subtask 1 (a drafter): enlarge the bolt circle.  Postcondition
    # deliberately weaker than consistency — the circle may temporarily
    # collide with the bracket edge.
    drafter = tm.define(
        chief,
        Spec(
            Predicate.parse("circle_d >= 1"),
            Predicate.parse("circle_d >= 70"),
        ),
        update_set={"circle_d"},
    )

    # Subtask 2 (an engineer): widen the bracket to fit, then enlarge
    # the holes.  Works *after* the drafter (partial order), and its
    # input constraint needs the enlarged circle.
    engineer = tm.define(
        chief,
        Spec(
            Predicate.parse("circle_d >= 70 & width >= 1 & hole_d >= 1"),
            Predicate.parse("width > 70 & hole_d >= 10"),
        ),
        update_set={"width", "hole_d"},
        predecessors=[drafter],
    )

    tm.validate(drafter)
    # The engineer validates optimistically: the drafter has not yet
    # produced circle_d >= 70, so validation fails against current
    # versions...
    result = tm.validate(engineer)
    print("Engineer validates before drafter writes:", result.outcome)
    assert result.outcome is Outcome.FAILED  # aborted — too eager

    # Drafter works: the database is now *inconsistent* in the latest
    # view (circle 80 > width 60), but old versions are retained.
    tm.read(drafter, "circle_d")
    tm.write(drafter, "circle_d", 80)
    tm.commit(drafter)
    print(
        "After drafter: latest view consistent?",
        db.is_consistent(),
        "| some consistent version state survives?",
        db.has_consistent_version_state(),
    )

    # Re-issue the engineer's subtransaction; now validation finds the
    # drafter's version.
    engineer = tm.define(
        chief,
        Spec(
            Predicate.parse("circle_d >= 70 & width >= 1 & hole_d >= 1"),
            Predicate.parse("width > 70 & hole_d >= 10"),
        ),
        update_set={"width", "hole_d"},
        predecessors=[drafter],
    )
    assert tm.validate(engineer).outcome is Outcome.OK
    circle = tm.read(engineer, "circle_d").value
    tm.read(engineer, "width")
    tm.read(engineer, "hole_d")
    tm.write(engineer, "width", circle + 10)
    tm.write(engineer, "hole_d", 12)
    tm.commit(engineer)

    # The chief's transaction closes; its postcondition is the full
    # consistency constraint, evaluated over its world view.
    commit = tm.commit(chief)
    print("Chief commits:", commit.outcome)
    tm.commit(tm.root)

    print()
    print("Final design view:", {
        name: value
        for name, value in tm.view(tm.root).items()
    })
    print("Parent-based violations:", tm.verify_parent_based(chief))
    print("Correctness violations: ", tm.verify_correctness(chief))
    print(
        "Phases:",
        {
            txn: tm.phase(txn).value
            for txn in (chief, drafter, engineer)
        },
    )
    print()
    print("Timeline (per transaction, in ticks):")
    print(render_timeline(tracer.spans))


if __name__ == "__main__":
    main()
