"""Tests for ≺SR-style unordered step groups in the simulator."""

from __future__ import annotations

import pytest

from repro.baselines import (
    KorthSpeegleScheduler,
    StrictTwoPhaseLocking,
)
from repro.core import Domain, Predicate, Schema
from repro.errors import SimulationError
from repro.sim import SimulationEngine
from repro.storage import Database
from repro.workload import (
    Read,
    Think,
    TransactionScript,
    Unordered,
    Workload,
    Write,
)


def _workload(scripts) -> Workload:
    schema = Schema.of("x", "y", "z", domain=Domain.interval(0, 1000))

    def factory() -> Database:
        return Database(
            schema,
            Predicate.parse("x >= 0 & y >= 0 & z >= 0"),
            {"x": 1, "y": 2, "z": 3},
        )

    return Workload("po", scripts, factory)


class TestUnorderedConstruction:
    def test_requires_accesses(self):
        with pytest.raises(SimulationError):
            Unordered(())
        with pytest.raises(SimulationError):
            Unordered((Think(1.0),))

    def test_flat_accesses_include_group_members(self):
        script = TransactionScript(
            "A",
            [Read("x"), Unordered((Write("y", 1), Read("z")))],
        )
        entities = {step.entity for step in script.flat_accesses()}
        assert entities == {"x", "y", "z"}
        assert script.read_entities == {"x", "z"}
        assert script.write_entities == {"y"}


class TestExecutionSemantics:
    def test_group_completes_all_members(self):
        scripts = [
            TransactionScript(
                "A",
                [Unordered((Write("x", 5), Write("y", 6), Read("z")))],
            )
        ]
        workload = _workload(scripts)
        db = workload.fresh_database()
        metrics = SimulationEngine(
            StrictTwoPhaseLocking(db), workload
        ).run()
        assert metrics.committed_count == 1
        assert db.store.latest("x").value == 5
        assert db.store.latest("y").value == 6

    def test_blocked_member_is_deferred_not_parked(self):
        # B holds x with a long write; A's group does y first and only
        # waits the tail end for x.
        scripts = [
            TransactionScript(
                "B", [Write("x", 9, duration=30.0)], arrival=0.0
            ),
            TransactionScript(
                "A",
                [
                    Unordered(
                        (
                            Write("x", 5, duration=1.0),
                            Write("y", 6, duration=20.0),
                        )
                    )
                ],
                arrival=1.0,
            ),
        ]
        workload = _workload(scripts)
        flexible = SimulationEngine(
            StrictTwoPhaseLocking(workload.fresh_database()), workload
        ).run()

        sequential_scripts = [
            scripts[0],
            TransactionScript(
                "A",
                [
                    Write("x", 5, duration=1.0),
                    Write("y", 6, duration=20.0),
                ],
                arrival=1.0,
            ),
        ]
        workload2 = _workload(sequential_scripts)
        sequential = SimulationEngine(
            StrictTwoPhaseLocking(workload2.fresh_database()), workload2
        ).run()

        assert flexible.committed_count == 2
        assert sequential.committed_count == 2
        # The ≺SR gain: overlapping y-work with the x wait.
        assert (
            flexible.total_wait_time < sequential.total_wait_time
        )
        assert flexible.makespan <= sequential.makespan

    def test_groups_work_with_split_write_scheduler(self):
        scripts = [
            TransactionScript(
                "A",
                [Unordered((Write("x", 5), Read("y")))],
            ),
            TransactionScript(
                "B",
                [Unordered((Write("y", 7), Read("x")))],
                arrival=0.5,
            ),
        ]
        workload = _workload(scripts)
        scheduler = KorthSpeegleScheduler(workload.fresh_database())
        metrics = SimulationEngine(scheduler, workload).run()
        assert metrics.committed_count == 2
        tm = scheduler.manager
        assert tm.verify_parent_based(tm.root) == []
        assert tm.verify_correctness(tm.root) == []

    def test_symmetric_contention_still_completes(self):
        # Both want both items with long writes: a genuine deadlock
        # under 2PL; detection + restart must converge.
        scripts = [
            TransactionScript(
                "A",
                [
                    Unordered(
                        (
                            Write("x", 5, duration=20.0),
                            Write("y", 6, duration=20.0),
                        )
                    )
                ],
            ),
            TransactionScript(
                "B",
                [
                    Unordered(
                        (
                            Write("x", 7, duration=20.0),
                            Write("y", 8, duration=20.0),
                        )
                    )
                ],
                arrival=1.0,
            ),
        ]
        workload = _workload(scripts)
        metrics = SimulationEngine(
            StrictTwoPhaseLocking(workload.fresh_database()), workload
        ).run()
        assert metrics.committed_count == 2
