#!/usr/bin/env python3
"""Experiment P1 interactively: the paper's protocol vs the classics.

Runs a long-duration collaborative-design workload and a short OLTP
workload under six schedulers — serial, strict 2PL, timestamp
ordering, multiversion TO, predicate-wise 2PL, and the paper's
Section-5 protocol — and prints the wait/abort/makespan table.

Expected shape (Section 2.4's goals):

* on the CAD workload the paper's protocol shows (near-)zero lock wait
  time, the fewest restarts, and the best makespan of the concurrent
  schedulers;
* on the OLTP workload all protocols roughly agree — the classical
  world was never the problem.

Run:  python examples/protocol_showdown.py
"""

from repro.sim import compare_schedulers, metrics_table
from repro.workload import cad_workload, oltp_workload


def main() -> None:
    print("=== Long-duration CAD workload (think time 100) ===")
    cad = cad_workload(
        num_designers=8,
        num_modules=3,
        accesses_per_txn=6,
        think_time=100.0,
        cooperation_probability=0.3,
        seed=3,
    )
    print(metrics_table(compare_schedulers(cad, seed=1)))
    print()

    print("=== Same designers, think time swept ===")
    for think in (0.0, 25.0, 100.0, 400.0):
        workload = cad_workload(
            num_designers=6, think_time=think, seed=3
        )
        results = compare_schedulers(
            workload,
            schedulers={
                name: factory
                for name, factory in __import__(
                    "repro.sim.runner", fromlist=["DEFAULT_SCHEDULERS"]
                ).DEFAULT_SCHEDULERS.items()
                if name in ("s2pl", "korth-speegle")
            },
            seed=1,
        )
        s2pl = results["s2pl"]
        ks = results["korth-speegle"]
        print(
            f"think={think:6.0f}  s2pl wait={s2pl.total_wait_time:9.1f} "
            f"restarts={s2pl.total_restarts}  |  "
            f"korth-speegle wait={ks.total_wait_time:7.1f} "
            f"restarts={ks.total_restarts}"
        )
    print()

    print("=== Short OLTP workload (no think time) ===")
    oltp = oltp_workload(num_transactions=16, seed=5)
    print(metrics_table(compare_schedulers(oltp, seed=1)))


if __name__ == "__main__":
    main()
