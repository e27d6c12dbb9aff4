"""Experiment P1 — the motivating performance claims (§1, §2.4, §5).

The paper has no measured evaluation; its claims are qualitative:

* 2PL makes long transactions wait for the duration of other long
  transactions (and deadlock-aborts them);
* timestamp schemes trade the waits for aborts, losing human work;
* the Section-5 protocol blocks only for the duration of individual
  write *operations* and aborts only on genuine partial-order
  invalidation.

These benchmarks regenerate that shape on the synthetic CAD workload:
per-scheduler wait/abort/makespan tables, plus a think-time sweep
showing 2PL's waits scale with transaction duration while the
protocol's do not.
"""

from __future__ import annotations

from repro.sim import (
    DEFAULT_SCHEDULERS,
    compare_schedulers,
    metrics_table,
    run_one,
)
from repro.workload import cad_workload, oltp_workload

from conftest import report


def test_p1_cad_comparison(benchmark, cad_workload_std):
    def run_all():
        return compare_schedulers(cad_workload_std, seed=1)

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    ks = results["korth-speegle"]
    s2pl = results["s2pl"]
    to = results["to"]
    serial = results["serial"]

    # Goal 1: reduce the number and duration of waits.
    assert ks.total_wait_time <= s2pl.total_wait_time
    assert ks.total_waits <= s2pl.total_waits
    # Goal 2: reduce the number and effect of aborts.
    assert ks.total_restarts <= to.total_restarts
    assert ks.total_wasted_time <= to.total_wasted_time
    # Concurrency: beat the serial makespan.
    assert ks.makespan < serial.makespan
    # Everyone the protocol admitted actually committed.
    assert ks.committed_count == len(cad_workload_std.scripts)

    report(
        "P1: scheduler comparison on the long-duration CAD workload",
        metrics_table(results),
    )


def test_p1_think_time_sweep(benchmark):
    def sweep():
        rows = []
        for think in (0.0, 50.0, 100.0, 200.0, 400.0):
            workload = cad_workload(
                num_designers=6, think_time=think, seed=3
            )
            s2pl = run_one(
                DEFAULT_SCHEDULERS["s2pl"], workload, seed=1
            )
            ks = run_one(
                DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=1
            )
            rows.append(
                {
                    "think": think,
                    "s2pl_wait": round(s2pl.total_wait_time, 1),
                    "s2pl_restarts": s2pl.total_restarts,
                    "ks_wait": round(ks.total_wait_time, 1),
                    "ks_restarts": ks.total_restarts,
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # 2PL's wait time grows with think time; the protocol's does not.
    s2pl_waits = [row["s2pl_wait"] for row in rows]
    ks_waits = [row["ks_wait"] for row in rows]
    assert s2pl_waits[-1] > s2pl_waits[1] > 0
    assert max(ks_waits) <= min(s2pl_waits[1:])
    from repro.analysis import text_table

    report("P1b: wait time vs think time", text_table(rows))


def test_p1_oltp_no_regression(benchmark):
    workload = oltp_workload(num_transactions=16, seed=5)

    def run_all():
        return compare_schedulers(workload, seed=1)

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    for name, metrics in results.items():
        assert metrics.committed_count == 16, name
    # The protocol's makespan is within 25% of the best scheduler.
    best = min(m.makespan for m in results.values())
    assert results["korth-speegle"].makespan <= best * 1.25
    report(
        "P1c: short-transaction (OLTP) workload — protocols agree",
        metrics_table(results),
    )


def test_p1_contention_sweep(benchmark):
    """Abort behaviour as module contention rises (fewer modules)."""

    def sweep():
        rows = []
        for modules in (4, 2, 1):
            workload = cad_workload(
                num_designers=6,
                num_modules=modules,
                think_time=100.0,
                seed=3,
            )
            to = run_one(DEFAULT_SCHEDULERS["to"], workload, seed=1)
            ks = run_one(
                DEFAULT_SCHEDULERS["korth-speegle"], workload, seed=1
            )
            rows.append(
                {
                    "modules": modules,
                    "to_restarts": to.total_restarts,
                    "to_wasted": round(to.total_wasted_time, 1),
                    "ks_restarts": ks.total_restarts,
                    "ks_wasted": round(ks.total_wasted_time, 1),
                }
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    for row in rows:
        assert row["ks_restarts"] <= row["to_restarts"]
    from repro.analysis import text_table

    report("P1d: aborts vs contention (fewer modules = hotter)", text_table(rows))
