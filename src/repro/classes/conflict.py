"""Conflict serializability — the class CSR (Section 4.3).

Two schedules are conflict equivalent when their conflicting steps
(same entity, different transactions, at least one write) are in the
same order; a schedule is conflict serializable when it is conflict
equivalent to some serial schedule.  The polynomial test is acyclicity
of the transaction precedence graph.
"""

from __future__ import annotations

from ..schedules.fastsched import fast_of
from ..schedules.schedule import Schedule
from .graphs import has_cycle, topological_order


def conflict_graph(schedule: Schedule) -> dict[str, set[str]]:
    """The precedence graph: edge ``A → B`` when a step of ``A``
    conflicts with and precedes a step of ``B``.  Memoized per
    schedule (the classifier, the census, and the DOT exporter all ask
    for the same graph).

    Served by the array-encoded path, which carries per-entity
    reader/writer sets in one pass instead of comparing every step
    pair; :func:`repro.reference.conflict_graph_reference` transcribes
    the definition directly and is held against this in the
    differential tests."""

    return schedule.memo(
        "conflict_graph", lambda: fast_of(schedule).conflict_graph()
    )


def is_conflict_serializable(schedule: Schedule) -> bool:
    """CSR membership: the conflict graph is acyclic."""
    return not has_cycle(conflict_graph(schedule))


def conflict_serialization_order(
    schedule: Schedule,
) -> tuple[str, ...] | None:
    """A serial order witnessing CSR membership, or ``None``."""
    order = topological_order(conflict_graph(schedule))
    if order is None:
        return None
    return tuple(order)
