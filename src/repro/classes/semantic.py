"""Semantic (commutativity-aware) conflicts — §2.3's other example.

"The most common example of using semantics is defining accesses to be
either a read or a write of a data item, but other examples can be
found in [Korth 1983]."  The canonical Korth-1983 example is the
*increment*: a blind add-constant that commutes with other increments.
Two increments on the same item need no mutual ordering — any
interleaving yields the same sum — so the semantic conflict relation
drops increment/increment pairs:

========= ====== ====== =========
          read   write  increment
read      —      ✕      ✕
write     ✕      ✕      ✕
increment ✕      ✕      —
========= ====== ====== =========

The classical testers treat increments as writes (conservative); the
testers here exploit the commutativity, admitting strictly more
schedules — the same move the whole paper makes at a larger scale.
"""

from __future__ import annotations

from ..schedules.operations import Operation
from ..schedules.schedule import Schedule
from .graphs import has_cycle, topological_order


def semantic_conflict(first: Operation, second: Operation) -> bool:
    """The commutativity-aware conflict relation (table above)."""
    if first.entity != second.entity or first.txn == second.txn:
        return False
    if first.is_read and second.is_read:
        return False
    if first.is_increment and second.is_increment:
        return False
    return True


def semantic_conflict_graph(schedule: Schedule) -> dict[str, set[str]]:
    """Precedence graph under semantic conflicts."""
    adjacency: dict[str, set[str]] = {
        txn: set() for txn in schedule.transactions
    }
    ops = schedule.operations
    for i, first in enumerate(ops):
        for j in range(i + 1, len(ops)):
            if semantic_conflict(first, ops[j]):
                adjacency[first.txn].add(ops[j].txn)
    return adjacency


def is_semantically_conflict_serializable(schedule: Schedule) -> bool:
    """CSR under the semantic conflict relation.

    A superset of classical CSR: every classical conflict pair is a
    semantic conflict pair except increment/increment, so any
    classically serializable schedule stays serializable and
    increment-heavy workloads gain.
    """
    return not has_cycle(semantic_conflict_graph(schedule))


def semantic_serialization_order(
    schedule: Schedule,
) -> tuple[str, ...] | None:
    """A witnessing serial order under semantic conflicts, or None."""
    order = topological_order(semantic_conflict_graph(schedule))
    if order is None:
        return None
    return tuple(order)
