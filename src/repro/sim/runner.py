"""Comparison harness: one workload, every scheduler, one table.

The entry point for experiment P1 (the paper's motivating claims):
:func:`compare_schedulers` runs a workload under the Section-5 protocol
and every classical baseline — each on its own fresh database — and
returns the metric rows the benchmarks and examples print.
"""

from __future__ import annotations

from typing import Callable

from ..baselines.base import ConcurrencyControl
from ..baselines.korth_speegle import KorthSpeegleScheduler
from ..baselines.multiversion_to import MultiversionTimestampOrdering
from ..baselines.predicatewise_2pl import PredicatewiseTwoPhaseLocking
from ..baselines.serial import SerialExecution
from ..baselines.timestamp import (
    ConservativeTimestampOrdering,
    TimestampOrdering,
)
from ..baselines.two_phase_locking import StrictTwoPhaseLocking
from ..obs.trace import Tracer
from ..storage.database import Database
from ..workload import Workload
from .engine import SimulationEngine
from .metrics import RunMetrics

SchedulerFactory = Callable[[Database], ConcurrencyControl]

DEFAULT_SCHEDULERS: dict[str, SchedulerFactory] = {
    "serial": SerialExecution,
    "s2pl": StrictTwoPhaseLocking,
    "to": TimestampOrdering,
    "conservative-to": ConservativeTimestampOrdering,
    "mvto": MultiversionTimestampOrdering,
    "pw2pl": PredicatewiseTwoPhaseLocking,
    "korth-speegle": KorthSpeegleScheduler,
}
"""Every scheduler the P1 benchmark compares, keyed by short name."""

EXTENDED_SCHEDULERS: dict[str, SchedulerFactory] = {
    **DEFAULT_SCHEDULERS,
    "s2pl-wait-die": lambda db: StrictTwoPhaseLocking(
        db, deadlock_policy="wait-die"
    ),
    "s2pl-wound-wait": lambda db: StrictTwoPhaseLocking(
        db, deadlock_policy="wound-wait"
    ),
}
"""Defaults plus the deadlock-*prevention* 2PL variants.

Kept out of the default comparison: prevention restarts re-enter with
a fresh (younger) age under the simulator's restart model, so heavy
contention can starve a transaction — itself an instructive data point,
but one that makes "everyone commits" assertions configuration
dependent."""


def run_one(
    factory: SchedulerFactory,
    workload: Workload,
    seed: int = 0,
    max_restarts: int = 40,
    max_events: int = 500_000,
    tracer: Tracer | None = None,
) -> RunMetrics:
    """Run a single scheduler against a fresh copy of the workload.

    With a ``tracer``, the engine records lifecycle spans (arrive,
    wait, restart, commit) and — when the scheduler is the Section-5
    protocol — the protocol layers share the tracer and the run's
    metrics registry, so validate/read/write spans and lock-queue
    histograms land in the same trace.
    """
    database = workload.fresh_database()
    scheduler = factory(database)
    engine = SimulationEngine(
        scheduler,
        workload,
        seed=seed,
        max_restarts=max_restarts,
        max_events=max_events,
        tracer=tracer,
    )
    if isinstance(scheduler, KorthSpeegleScheduler):
        if tracer is not None:
            scheduler.set_tracer(tracer)
        scheduler.set_registry(engine.metrics.registry)
    return engine.run()


def compare_schedulers(
    workload: Workload,
    schedulers: "dict[str, SchedulerFactory] | None" = None,
    seed: int = 0,
    max_restarts: int = 40,
) -> dict[str, RunMetrics]:
    """Run every scheduler on the workload; returns name → metrics."""
    chosen = schedulers if schedulers is not None else DEFAULT_SCHEDULERS
    return {
        name: run_one(
            factory, workload, seed=seed, max_restarts=max_restarts
        )
        for name, factory in chosen.items()
    }


def metrics_table(results: dict[str, RunMetrics]) -> str:
    """Format comparison results as an aligned text table."""
    rows = [metrics.summary_row() for metrics in results.values()]
    if not rows:
        return "(no results)"
    columns = list(rows[0].keys())
    widths = {
        column: max(
            len(column), *(len(str(row[column])) for row in rows)
        )
        for column in columns
    }
    header = "  ".join(column.ljust(widths[column]) for column in columns)
    divider = "  ".join("-" * widths[column] for column in columns)
    lines = [header, divider]
    for row in rows:
        lines.append(
            "  ".join(
                str(row[column]).ljust(widths[column])
                for column in columns
            )
        )
    return "\n".join(lines)
