"""Cross-module integration tests: the paper's narratives end to end."""

from __future__ import annotations


import repro
from repro.classes import classify, figure2_region
from repro.core import (
    Domain,
    Predicate,
    Schema,
    Spec,
    lemma1_instance,
)
from repro.obs import RecordingTracer
from repro.protocol import Outcome, TransactionManager
from repro.sat import CNFFormula
from repro.schedules import Schedule
from repro.storage import Database


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None


class TestPaperNarrativeSection2:
    """Section 2's informal story, executed."""

    def test_cooperating_designers_nonserializable_but_correct(self):
        # Two designers exchange intermediate results through versions
        # — a schedule pattern equivalent to Example 1, which no
        # serializability-based scheduler admits.
        schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))
        db = Database(
            schema,
            Predicate.parse("x >= 0 & y >= 0"),
            {"x": 1, "y": 1},
        )
        tm = TransactionManager(db)
        t1 = tm.define(
            tm.root, Spec(Predicate.parse("x >= 0 & y >= 0"),
                          Predicate.true()), {"x", "y"}
        )
        t2 = tm.define(
            tm.root, Spec(Predicate.parse("x >= 0 & y >= 0"),
                          Predicate.true()), {"y"}
        )
        for txn in (t1, t2):
            assert tm.validate(txn).outcome is Outcome.OK
        # t1: R(x) W(x); t2 then reads the *initial* x (old version!)
        tm.read(t1, "x")
        tm.write(t1, "x", 100)
        assert tm.read(t2, "x").value == 1  # multiversion read
        # t2: W(y); t1 then reads y — its assigned (initial) version.
        tm.read(t2, "y")
        tm.write(t2, "y", 200)
        assert tm.read(t1, "y").value == 1
        tm.write(t1, "y", 50)
        assert tm.commit(t1).outcome is Outcome.OK
        assert tm.commit(t2).outcome is Outcome.OK
        assert tm.commit(tm.root).outcome is Outcome.OK
        assert tm.verify_parent_based(tm.root) == []
        assert tm.verify_correctness(tm.root) == []


class TestComplexityPipeline:
    def test_sat_to_protocol_relevant_sizes(self):
        # A formula solvable both ways, embedded through every layer.
        formula = CNFFormula.parse("a | b & ~a | c & ~b | ~c")
        instance = lemma1_instance(formula)
        direct = instance.solve_direct()
        via_sat = instance.solve_via_sat()
        assert direct is not None and via_sat is not None
        assert instance.input_constraint.evaluate(direct)
        assert instance.input_constraint.evaluate(via_sat)


class TestScheduleToProtocolConsistency:
    """The protocol's trace replays as a classifiable schedule."""

    def test_protocol_history_is_cpc(self):
        schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))
        db = Database(
            schema,
            Predicate.parse("x >= 0 & y >= 0"),
            {"x": 1, "y": 1},
        )
        tracer = RecordingTracer()
        tm = TransactionManager(db, tracer=tracer)
        t1 = tm.define(
            tm.root,
            Spec(Predicate.parse("x >= 0"), Predicate.true()),
            {"x"},
        )
        t2 = tm.define(
            tm.root,
            Spec(Predicate.parse("y >= 0"), Predicate.true()),
            {"y"},
        )
        tm.validate(t1)
        tm.validate(t2)
        tm.read(t1, "x")
        tm.read(t2, "y")
        tm.write(t2, "y", 9)
        tm.write(t1, "x", 8)
        tm.commit(t1)
        tm.commit(t2)
        # Reconstruct the operation schedule from the recorded trace.
        ops = []
        rename = {t1: "1", t2: "2"}
        for span in tracer.spans:
            if span.kind in ("read", "write"):
                ops.append(
                    f"{span.kind[0]}{rename[span.txn]}({span.attrs['entity']})"
                )
        schedule = Schedule.parse(" ".join(ops))
        membership = classify(schedule, [{"x"}, {"y"}])
        assert membership.cpc
        assert figure2_region(membership) in range(1, 10)


class TestMultilevelNesting:
    def test_three_level_tree_commits_bottom_up(self):
        schema = Schema.of("x", domain=Domain.interval(0, 1000))
        db = Database(schema, Predicate.parse("x >= 0"), {"x": 1})
        tm = TransactionManager(db)
        top = tm.define(tm.root, Spec.trivial(), {"x"})
        tm.validate(top)
        mid = tm.define(top, Spec.trivial(), {"x"})
        tm.validate(mid)
        leaf = tm.define(mid, Spec.trivial(), {"x"})
        tm.validate(leaf)
        tm.write(leaf, "x", 42)
        # Commit must proceed leaf -> mid -> top.
        assert tm.commit(top).outcome is Outcome.FAILED
        assert tm.commit(mid).outcome is Outcome.FAILED
        assert tm.commit(leaf).outcome is Outcome.OK
        assert tm.commit(mid).outcome is Outcome.OK
        assert tm.commit(top).outcome is Outcome.OK
        # The write surfaced through both releases.
        assert tm.view(tm.root)["x"] == 42

    def test_deep_names_follow_figure1(self):
        schema = Schema.of("x", domain=Domain.interval(0, 1000))
        db = Database(schema, Predicate.parse("x >= 0"), {"x": 1})
        tm = TransactionManager(db)
        top = tm.define(tm.root, Spec.trivial(), {"x"})
        tm.validate(top)
        mid = tm.define(top, Spec.trivial(), {"x"})
        assert top == "t.0"
        assert mid == "t.0.0"
