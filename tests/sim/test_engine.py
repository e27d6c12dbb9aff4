"""Tests for the discrete-event simulation engine."""

from __future__ import annotations


from repro.baselines import (
    KorthSpeegleScheduler,
    SerialExecution,
    StrictTwoPhaseLocking,
    TimestampOrdering,
)
from repro.core import Domain, Entity, Predicate, Schema
from repro.sim import SimulationEngine
from repro.storage import Database
from repro.workload import Read, Think, TransactionScript, Workload, Write


def _tiny_workload(scripts) -> Workload:
    schema = Schema(
        [Entity(name, Domain.interval(0, 1000)) for name in ("x", "y")]
    )

    def factory() -> Database:
        return Database(
            schema, Predicate.parse("x >= 0 & y >= 0"), {"x": 1, "y": 2}
        )

    return Workload("tiny", scripts, factory)


class TestBasicRuns:
    def test_single_transaction_commits(self):
        workload = _tiny_workload(
            [
                TransactionScript(
                    "A",
                    [Think(5.0), Read("x"), Write("y", 9, duration=2.0)],
                )
            ]
        )
        metrics = SimulationEngine(
            StrictTwoPhaseLocking(workload.fresh_database()), workload
        ).run()
        assert metrics.committed_count == 1
        txn = metrics.transactions["A"]
        assert txn.committed
        assert txn.restarts == 0
        assert metrics.makespan >= 7.0

    def test_wait_accounting_under_2pl(self):
        # B needs x while A holds it across a long think.
        scripts = [
            TransactionScript(
                "A", [Write("x", 5), Think(50.0), Read("y")], arrival=0.0
            ),
            TransactionScript("B", [Read("x")], arrival=1.0),
        ]
        workload = _tiny_workload(scripts)
        metrics = SimulationEngine(
            StrictTwoPhaseLocking(workload.fresh_database()), workload
        ).run()
        assert metrics.committed_count == 2
        b = metrics.transactions["B"]
        assert b.waits >= 1
        assert b.wait_time >= 45.0

    def test_restart_accounting_under_to(self):
        # B (younger) writes x, then A (older) reads x: late -> abort.
        scripts = [
            TransactionScript(
                "A", [Think(10.0), Read("x")], arrival=0.0
            ),
            TransactionScript("B", [Write("x", 5)], arrival=1.0),
        ]
        workload = _tiny_workload(scripts)
        metrics = SimulationEngine(
            TimestampOrdering(workload.fresh_database()),
            workload,
        ).run()
        assert metrics.committed_count == 2
        assert metrics.transactions["A"].restarts >= 1
        assert metrics.total_wasted_time > 0

    def test_give_up_after_max_restarts(self):
        # A transaction that aborts forever: a TO reader behind a
        # perpetually-younger writer would eventually succeed, so force
        # failure with max_restarts=0 instead.
        scripts = [
            TransactionScript("A", [Think(10.0), Read("x")]),
            TransactionScript("B", [Write("x", 5)], arrival=1.0),
        ]
        workload = _tiny_workload(scripts)
        metrics = SimulationEngine(
            TimestampOrdering(workload.fresh_database()),
            workload,
            max_restarts=0,
        ).run()
        a = metrics.transactions["A"]
        assert a.gave_up
        assert not a.committed

    def test_serial_runs_everything(self):
        scripts = [
            TransactionScript(f"T{i}", [Read("x"), Write("y", i)])
            for i in range(5)
        ]
        workload = _tiny_workload(scripts)
        metrics = SimulationEngine(
            SerialExecution(workload.fresh_database()), workload
        ).run()
        assert metrics.committed_count == 5


class TestKorthSpeegleRuns:
    def test_split_write_window(self):
        # Reader arrives during the writer's 10-unit write window.
        scripts = [
            TransactionScript(
                "W", [Write("x", 5, duration=10.0)], arrival=0.0
            ),
            TransactionScript(
                "R", [Think(5.0), Read("x")], arrival=0.0
            ),
        ]
        workload = _tiny_workload(scripts)
        metrics = SimulationEngine(
            KorthSpeegleScheduler(workload.fresh_database()), workload
        ).run()
        assert metrics.committed_count == 2
        reader = metrics.transactions["R"]
        # Blocked for at most the tail of the write window, not for
        # the writer's whole lifetime.
        assert reader.wait_time <= 10.0

    def test_cooperation_edge_ordering(self):
        scripts = [
            TransactionScript("A", [Write("x", 5)], arrival=0.0),
            TransactionScript(
                "B",
                [Read("x")],
                arrival=0.0,
                predecessors=("A",),
            ),
        ]
        workload = _tiny_workload(scripts)
        metrics = SimulationEngine(
            KorthSpeegleScheduler(workload.fresh_database()), workload
        ).run()
        assert metrics.committed_count == 2

    def test_protocol_run_is_verifiably_correct(self):
        scripts = [
            TransactionScript(
                "A", [Read("x"), Write("x", 7)], arrival=0.0
            ),
            TransactionScript(
                "B", [Read("y"), Write("y", 8)], arrival=1.0
            ),
        ]
        workload = _tiny_workload(scripts)
        scheduler = KorthSpeegleScheduler(workload.fresh_database())
        metrics = SimulationEngine(scheduler, workload).run()
        assert metrics.committed_count == 2
        tm = scheduler.manager
        assert tm.verify_parent_based(tm.root) == []
        assert tm.verify_correctness(tm.root) == []
