#!/usr/bin/env python3
"""Per-transaction protocol cost against history length, in-process.

Two serial sessions through one :class:`DurableTransactionManager`
each (a fresh WAL directory, synchronous commit), with no server and
no concurrency, so any growth in the cost of a transaction comes from
the history the manager keeps:

``serial``   ``--serial`` ``oltp_workload`` scripts, each defined,
             validated, run and committed before the next one starts;
``chained``  ``--chained`` scripts of the same workload, each defined
             with ``predecessors=[previous transaction]``, so the
             root's partial order is one chain as long as the run.

For each it prints the wall time, the mean cost per transaction over
the first and the last tenth of the session, their ratio (the growth),
and how many ``PartialOrder`` and ``ParentIndex`` objects were
constructed while it ran.  A transaction's cost is the process CPU
time it took: the fsync each commit waits for is the same for every
transaction and only adds noise to the ratio (it is in the wall
time).  Beside it, the wall time of one ``checkpoint()`` at the end of
the first and of the last tenth, each taken one tenth after the
previous checkpoint, so both write the same amount of change over a
history of different length.

    PYTHONPATH=src python tools/flat_cost.py
    PYTHONPATH=src python tools/flat_cost.py --seed 7 --serial 1500 --chained 300

It uses only the public manager surface, so it runs unchanged against
an older checkout (``PYTHONPATH=/path/to/parent/src``).
"""

from __future__ import annotations

import argparse
import functools
import sys
import tempfile
import time
from statistics import fmean


def _counting(cls) -> list[int]:
    """Count constructions of ``cls`` (one shared cell)."""
    count = [0]
    original = cls.__init__

    @functools.wraps(original)
    def counted(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    cls.__init__ = counted
    return count


def _run_txn(tm, txn, predecessors: list[str]) -> "str | None":
    """One script, start to commit; its name if it committed."""
    from repro.core.predicates import Predicate
    from repro.core.transactions import Spec

    spec = Spec(Predicate.parse(txn.input), Predicate.parse(txn.output))
    name = tm.define(tm.root, spec, txn.updates, predecessors=predecessors)
    if tm.validate(name).outcome.value != "ok":
        return None
    seen: dict[str, int] = {}
    for op in txn.ops:
        if tm.phase(name).value != "validated":
            return None
        if op[0] == "read":
            seen[op[1]] = tm.read(name, op[1]).value
        elif op[0] == "bump":
            entity, source, delta, high = op[1:5]
            tm.write(name, entity, min(high, seen.get(source, 0) + delta))
        elif op[0] == "commit":
            if tm.commit(name).outcome.value != "ok":
                tm.abort(name)
                return None
    return name


def session(count: int, seed: int, chained: bool) -> dict:
    from repro.core.orders import PartialOrder
    from repro.durability import DurableTransactionManager
    from repro.protocol import fastpath
    from repro.workload.families import oltp_workload

    workload = oltp_workload(num_transactions=count, seed=seed)
    txns = [script.to_txn() for script in workload.scripts]
    orders = _counting(PartialOrder)
    indexes = _counting(fastpath.ParentIndex)
    costs: list[float] = []
    checkpoints: list[float] = []
    committed = 0
    tenth = max(1, len(txns) // 10)
    with tempfile.TemporaryDirectory() as wal_dir:
        tm, _ = DurableTransactionManager.open(
            wal_dir, workload.fresh_database
        )

        def checkpoint() -> None:
            begun = time.perf_counter()
            tm.checkpoint()
            checkpoints.append((time.perf_counter() - begun) * 1e3)

        previous: "str | None" = None
        started = time.perf_counter()
        for index, txn in enumerate(txns):
            if index == len(txns) - tenth and index > tenth:
                tm.checkpoint()  # the last tenth's one comes a tenth on
            begun = time.process_time()
            name = _run_txn(
                tm, txn, [previous] if chained and previous else []
            )
            costs.append(time.process_time() - begun)
            if name is not None:
                committed += 1
                previous = name
            if index + 1 == tenth:
                checkpoint()
        checkpoint()
        wall = time.perf_counter() - started
        tm.close()
    first = fmean(costs[:tenth]) * 1e3
    last = fmean(costs[-tenth:]) * 1e3
    return {
        "transactions": len(costs),
        "committed": committed,
        "wall_s": wall,
        "first_decile_ms": first,
        "last_decile_ms": last,
        "growth": last / first,
        "checkpoint_first_ms": checkpoints[0],
        "checkpoint_last_ms": checkpoints[-1],
        "partial_orders": orders[0],
        "parent_indexes": indexes[0],
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--serial", type=int, default=1500)
    parser.add_argument("--chained", type=int, default=300)
    args = parser.parse_args(argv)
    print(f"python {sys.version.split()[0]}, seed {args.seed}")
    for label, count, chained in (
        ("serial", args.serial, False),
        ("chained", args.chained, True),
    ):
        if count <= 0:
            continue
        result = session(count, args.seed, chained)
        print(
            f"{label:8s} {result['transactions']} txns "
            f"({result['committed']} committed) "
            f"wall {result['wall_s']:.2f} s  "
            f"first decile {result['first_decile_ms']:.2f} ms  "
            f"last decile {result['last_decile_ms']:.2f} ms  "
            f"growth x{result['growth']:.1f}  "
            f"checkpoint {result['checkpoint_first_ms']:.1f} -> "
            f"{result['checkpoint_last_ms']:.1f} ms  "
            f"PartialOrder {result['partial_orders']}  "
            f"ParentIndex {result['parent_indexes']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
