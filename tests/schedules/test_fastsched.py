"""Differential tests: the array-encoded fast path vs the object oracle.

Every structure :mod:`repro.schedules.fastsched` computes must equal
what the direct transcription of the definitions computes — on the
paper's examples, on seeded random workloads, and on hypothesis-
generated schedules.  The object implementations live in
:mod:`repro.reference` (conflicts) and :mod:`repro.schedules.recovery`
(the RC/ACA/ST definitions) so these tests can hold the two paths
against each other.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classes.conflict import conflict_graph
from repro.reference import (
    conflict_graph_reference,
    conflict_pairs_reference,
)
from repro.schedules import (
    CommittedSchedule,
    FastSchedule,
    Schedule,
    avoids_cascading_aborts,
    fast_of,
    fast_recovery_profile,
    is_recoverable,
    is_strict,
    random_schedule,
    recovery_profile,
)
from repro.schedules.fastsched import (
    fast_avoids_cascading_aborts,
    fast_is_recoverable,
    fast_is_strict,
)

_EXAMPLES = [
    "r1(x) w1(x) r2(x) w2(y)",
    "r1(x) r2(x) w1(x) w2(x)",
    "w1(x) r2(x) w2(y) r1(y)",
    "r1(x) w2(x) r1(x) w1(y) i3(y) w3(x)",
    "w1(x) w1(x) r1(x) r1(x)",  # repeated identical steps
    "r1(x)",
    "i1(x) i2(x) r3(x) w3(y)",
]


def _schedules() -> list[Schedule]:
    schedules = [Schedule.parse(text) for text in _EXAMPLES]
    for seed in range(12):
        schedules.append(
            random_schedule(
                3 + seed % 3,
                4,
                ["x", "y", "z"],
                write_ratio=0.4 + 0.05 * (seed % 5),
                seed=seed,
            )
        )
    return schedules


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["1", "2", "3", "4"]),
        st.sampled_from(["r", "w", "i"]),
        st.sampled_from(["x", "y", "z"]),
    ),
    min_size=1,
    max_size=16,
)


def _parse(ops: list[tuple[str, str, str]]) -> Schedule:
    return Schedule.parse(
        " ".join(f"{kind}{txn}({entity})" for txn, kind, entity in ops)
    )


class TestConflictStructures:
    def test_pairs_match_reference(self):
        for schedule in _schedules():
            fast = FastSchedule.from_schedule(schedule)
            assert fast.conflict_pairs() == list(
                conflict_pairs_reference(schedule)
            ), str(schedule)

    def test_public_pairs_are_the_fast_pairs(self):
        schedule = Schedule.parse(_EXAMPLES[3])
        assert list(schedule.conflict_pairs()) == list(
            conflict_pairs_reference(schedule)
        )

    def test_graph_matches_reference(self):
        for schedule in _schedules():
            assert conflict_graph(schedule) == conflict_graph_reference(
                schedule
            ), str(schedule)

    def test_fingerprint_matches_object_definition(self):
        for schedule in _schedules():
            fast = fast_of(schedule)
            numbers = schedule.occurrence_numbers()
            expected = frozenset(
                (
                    schedule[i],
                    schedule[j],
                    numbers[i],
                    numbers[j],
                )
                for i, j in conflict_pairs_reference(schedule)
            )
            assert fast.conflict_fingerprint() == expected
            assert schedule.conflict_fingerprint() == expected

    @given(ops_strategy)
    @settings(max_examples=200, deadline=None)
    def test_pairs_and_graph_property(self, ops):
        schedule = _parse(ops)
        fast = FastSchedule.from_schedule(schedule)
        assert fast.conflict_pairs() == list(
            conflict_pairs_reference(schedule)
        )
        assert fast.conflict_graph() == conflict_graph_reference(schedule)


class TestStandardModelSemantics:
    def test_occurrence_numbers(self):
        for schedule in _schedules():
            counts = {}
            expected = []
            for op in schedule:
                expected.append(counts.get(op, 0))
                counts[op] = expected[-1] + 1
            assert list(schedule.occurrence_numbers()) == expected

    def test_final_writers(self):
        for schedule in _schedules():
            fast = fast_of(schedule)
            assert fast.final_writers() == schedule.final_writers()

    def test_interning_orders_match_object_model(self):
        schedule = Schedule.parse("r2(y) w1(x) r2(x) w3(z)")
        fast = fast_of(schedule)
        assert fast.txns == schedule.transactions
        assert set(fast.entities) == set(schedule.entities)

    def test_operation_round_trip(self):
        for schedule in _schedules():
            fast = fast_of(schedule)
            for index, op in enumerate(schedule):
                assert fast.operation(index) == op


class TestRecoveryPredicates:
    def _committed(self, schedule: Schedule, seed: int) -> CommittedSchedule:
        order = list(schedule.transactions)
        random.Random(seed).shuffle(order)
        return CommittedSchedule(schedule, tuple(order))

    def test_fast_predicates_match_oracle(self):
        for index, schedule in enumerate(_schedules()):
            for seed in range(4):
                committed = self._committed(schedule, seed * 31 + index)
                assert fast_is_recoverable(committed) == is_recoverable(
                    committed
                ), str(schedule)
                assert fast_avoids_cascading_aborts(
                    committed
                ) == avoids_cascading_aborts(committed), str(schedule)
                assert fast_is_strict(committed) == is_strict(
                    committed
                ), str(schedule)

    def test_profile_is_the_fast_profile(self):
        schedule = Schedule.parse("w1(x) r2(x) w2(y)")
        order = tuple(schedule.transactions)
        committed = CommittedSchedule(schedule, order)
        assert recovery_profile(schedule, order) == fast_recovery_profile(
            committed
        )
        assert recovery_profile(schedule, order) == {
            "RC": is_recoverable(committed),
            "ACA": avoids_cascading_aborts(committed),
            "ST": is_strict(committed),
        }

    @given(ops_strategy, st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=200, deadline=None)
    def test_predicates_property(self, ops, seed):
        schedule = _parse(ops)
        committed = self._committed(schedule, seed)
        assert fast_is_recoverable(committed) == is_recoverable(committed)
        assert fast_avoids_cascading_aborts(
            committed
        ) == avoids_cascading_aborts(committed)
        assert fast_is_strict(committed) == is_strict(committed)


class TestMemoization:
    def test_fast_of_is_cached_per_schedule(self):
        schedule = Schedule.parse("r1(x) w2(x)")
        assert fast_of(schedule) is fast_of(schedule)

    def test_derived_arrays_cached(self):
        fast = fast_of(Schedule.parse("r1(x) w2(x) r3(y)"))
        assert fast.conflict_pairs() is fast.conflict_pairs()
        assert fast.occurrence_numbers() is fast.occurrence_numbers()
        assert fast.conflict_graph_ids() is fast.conflict_graph_ids()
