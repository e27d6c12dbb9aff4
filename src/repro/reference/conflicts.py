"""Section 4.3's conflict relation, step pair by step pair."""

from __future__ import annotations

from typing import Iterator

from ..schedules.schedule import Schedule


def conflict_pairs_reference(schedule: Schedule) -> Iterator[tuple[int, int]]:
    """Ordered index pairs of classically conflicting operations."""
    ops = schedule.operations
    for i, first in enumerate(ops):
        for j in range(i + 1, len(ops)):
            if first.conflicts_with(ops[j]):
                yield (i, j)


def conflict_graph_reference(schedule: Schedule) -> dict[str, set[str]]:
    """The precedence graph: ``A → B`` when a step of ``A`` conflicts
    with and precedes a step of ``B``."""
    adjacency: dict[str, set[str]] = {
        txn: set() for txn in schedule.transactions
    }
    ops = schedule.operations
    for i, j in conflict_pairs_reference(schedule):
        adjacency[ops[i].txn].add(ops[j].txn)
    return adjacency
