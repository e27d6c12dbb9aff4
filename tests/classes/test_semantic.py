"""Tests for semantic (increment-aware) conflicts (§2.3)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classes import is_conflict_serializable
from repro.classes.semantic import (
    is_semantically_conflict_serializable,
    semantic_conflict,
    semantic_conflict_graph,
    semantic_serialization_order,
)
from repro.schedules import I, R, Schedule, W


class TestParsingAndOps:
    def test_parse_increment(self):
        schedule = Schedule.parse("i1(x) r2(x)")
        assert schedule[0].is_increment
        assert schedule[0].is_write  # classical view

    def test_str_roundtrip(self):
        schedule = Schedule.parse("i1(x) w2(y) r1(y)")
        assert Schedule.parse(str(schedule)) == schedule

    def test_shorthand(self):
        assert str(I("1", "x")) == "i1(x)"


class TestSemanticConflict:
    def test_increments_commute(self):
        assert not semantic_conflict(I("1", "x"), I("2", "x"))

    def test_increment_conflicts_with_read_and_write(self):
        assert semantic_conflict(I("1", "x"), R("2", "x"))
        assert semantic_conflict(I("1", "x"), W("2", "x"))

    def test_reads_still_commute(self):
        assert not semantic_conflict(R("1", "x"), R("2", "x"))

    def test_classical_pairs_unchanged(self):
        assert semantic_conflict(R("1", "x"), W("2", "x"))
        assert semantic_conflict(W("1", "x"), W("2", "x"))

    def test_same_txn_or_entity_never_conflicts(self):
        assert not semantic_conflict(I("1", "x"), I("1", "x"))
        assert not semantic_conflict(I("1", "x"), W("2", "y"))


class TestSemanticSerializability:
    def test_interleaved_increments_classically_bad(self):
        # Two counter bumps wrapped around each other: a classical ww
        # cycle, semantically a non-event.
        schedule = Schedule.parse("i1(x) i2(x) i2(y) i1(y)")
        assert not is_conflict_serializable(schedule)
        assert is_semantically_conflict_serializable(schedule)

    def test_read_pins_the_order(self):
        # A read between the increments re-creates a genuine conflict.
        schedule = Schedule.parse("i1(x) r2(x) i1(y) i2(y) w1(y)")
        graph = semantic_conflict_graph(schedule)
        assert "2" in graph["1"] and "1" in graph["2"]
        assert not is_semantically_conflict_serializable(schedule)

    def test_witness_order(self):
        schedule = Schedule.parse("i1(x) i2(x) r3(x)")
        order = semantic_serialization_order(schedule)
        assert order is not None
        assert order[-1] == "3"  # the reader follows both increments

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_semantic_csr_contains_classical_csr(self, seed):
        """Property: dropping increment/increment conflicts only grows
        the class."""
        import random

        rng = random.Random(seed)
        ops = []
        for __ in range(rng.randint(2, 8)):
            txn = str(rng.randint(1, 3))
            entity = rng.choice(["x", "y"])
            kind = rng.choice([R, W, I])
            ops.append(kind(txn, entity))
        schedule = Schedule(ops)
        if is_conflict_serializable(schedule):
            assert is_semantically_conflict_serializable(schedule)
