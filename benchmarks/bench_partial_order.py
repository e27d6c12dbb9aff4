"""Ablation D2 — partial-order programs (≺SR, §4.2), operationally.

Two measurements of the concurrency partial orders add:

* combinatorial: how many admissible interleavings a partial-order
  program set has versus its totally-ordered restriction
  (``admissibility_gain``);
* operational: a 2PL run where a transaction's unordered group lets it
  "access a different, available data item" instead of waiting —
  measured wait-time reduction versus the sequential script.
"""

from __future__ import annotations

from repro.classes import PartialOrderProgram, admissibility_gain
from repro.core import PartialOrder
from repro.schedules import R, W

from conftest import report


def test_d2_admissibility_gain(benchmark):
    # Figure-1-style transactions: a read gate, then parallel writes.
    def build_and_count():
        first = PartialOrderProgram(
            "1",
            (R("1", "x"), W("1", "y"), W("1", "z")),
            PartialOrder([0, 1, 2], [(0, 1), (0, 2)]),
        )
        second = PartialOrderProgram.unordered(
            "2", (R("2", "a"), R("2", "b"))
        )
        return admissibility_gain({"1": first, "2": second})

    gained, base = benchmark(build_and_count)
    assert gained > base
    report(
        "D2: admissible interleavings, partial-order vs total-order",
        f"  partial-order: {gained}\n  total-order:   {base}\n"
        f"  gain: {gained / base:.1f}x",
    )


def test_d2_operational_wait_reduction(benchmark):
    from repro.baselines import StrictTwoPhaseLocking
    from repro.core import Domain, Predicate, Schema
    from repro.sim import SimulationEngine
    from repro.storage import Database
    from repro.workload import TransactionScript, Unordered, Workload, Write

    schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))

    def factory() -> Database:
        return Database(
            schema, Predicate.parse("x >= 0 & y >= 0"), {"x": 1, "y": 2}
        )

    def run_pair():
        blocker = TransactionScript(
            "B", [Write("x", 9, duration=30.0)], arrival=0.0
        )
        flexible_scripts = [
            blocker,
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
        sequential_scripts = [
            blocker,
            TransactionScript(
                "A",
                [
                    Write("x", 5, duration=1.0),
                    Write("y", 6, duration=20.0),
                ],
                arrival=1.0,
            ),
        ]
        results = {}
        for name, scripts in (
            ("sequential", sequential_scripts),
            ("partial-order", flexible_scripts),
        ):
            workload = Workload(name, scripts, factory)
            results[name] = SimulationEngine(
                StrictTwoPhaseLocking(workload.fresh_database()),
                workload,
            ).run()
        return results

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    sequential = results["sequential"]
    flexible = results["partial-order"]
    assert flexible.committed_count == sequential.committed_count == 2
    assert flexible.total_wait_time < sequential.total_wait_time
    report(
        "D2b: 2PL wait time, sequential vs partial-order scripts",
        f"  sequential:    wait {sequential.total_wait_time:6.1f}, "
        f"makespan {sequential.makespan:6.1f}\n"
        f"  partial-order: wait {flexible.total_wait_time:6.1f}, "
        f"makespan {flexible.makespan:6.1f}",
    )
