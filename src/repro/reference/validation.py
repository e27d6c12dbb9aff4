"""§5.1 validation transcribed directly: D-sets rule by rule over the
manager's objects, and version selection by DPLL.

Part 1's D-set for a data item ``d`` of the transaction ``t_i`` being
validated holds every sibling ``t_j`` except when

1. ``(t_i, t_j) ∈ P+`` — it is a successor of ``t_i``, or
2. ``d ∉ U_{t_j}`` — it does not update the item, or
3. some other updater of ``d`` lies strictly between ``t_j`` and
   ``t_i`` in ``P+``.

If some member is a *predecessor* of ``t_i``, only the
predecessor-written versions are allowed; otherwise any version written
by a member, or the version assigned to the parent, may be used.
Members that have not yet written the item contribute nothing — the
protocol's **optimistic assumption** (re-evaluation repairs the
assignment if they write later).

Part 2's DPLL selection compiles the choice to CNF
(:func:`repro.sat.reduction.solve_candidate_selection`) — the paper's
"treat selection as a query" — and is the oracle
:func:`repro.protocol.validation.select_versions` is tested against.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..core.orders import PartialOrder
from ..core.predicates import Predicate
from ..protocol.scheduler import TransactionManager, TxnPhase, TxnRecord
from ..protocol.validation import DSet, _value_index
from ..sat.reduction import solve_candidate_selection
from ..storage.version_store import Version


def compute_d_set(
    item: str,
    txn: str,
    siblings: Iterable[str],
    order: PartialOrder[str],
    update_sets: Mapping[str, frozenset[str]],
    versions_by: Mapping[str, tuple[Version, ...]],
    parent_version: Version,
) -> DSet:
    """Apply the three §5.1 exclusion rules and the predecessor rule.

    Parameters
    ----------
    item:
        The data item ``d`` being provisioned.
    txn:
        The transaction ``t_i`` being validated.
    siblings:
        Names of ``t_i``'s siblings (same parent), excluding ``t_i``.
    order:
        The parent's partial order ``P`` over its children.
    update_sets:
        Declared update set ``U_t`` per sibling.
    versions_by:
        Versions of ``item`` already written, per sibling (creation
        order).  Siblings that have not written are simply absent or
        mapped to an empty tuple — the optimistic assumption.
    parent_version:
        The version of ``item`` assigned to the parent (its world
        view), the fallback candidate.
    """
    members: set[str] = set()
    for sibling in siblings:
        if sibling == txn:
            continue
        if order.precedes(txn, sibling):  # rule 1: successor
            continue
        if item not in update_sets.get(sibling, frozenset()):  # rule 2
            continue
        intervening = any(
            item in update_sets.get(other, frozenset())
            and order.precedes(sibling, other)
            and order.precedes(other, txn)
            for other in siblings
            if other not in (sibling, txn)
        )
        if intervening:  # rule 3
            continue
        members.add(sibling)

    predecessors = frozenset(
        member for member in members if order.precedes(member, txn)
    )

    candidates: list[Version] = []
    used_parent = False
    if predecessors:
        # Only predecessor-written versions are allowed.  A predecessor
        # that has not written yet contributes nothing (optimism); if
        # none has written, fall back to the parent's version, which
        # re-evaluation will revisit when the predecessor writes.
        for member in sorted(predecessors):
            candidates.extend(versions_by.get(member, ()))
        if not candidates:
            candidates.append(parent_version)
            used_parent = True
    else:
        for member in sorted(members):
            candidates.extend(versions_by.get(member, ()))
        candidates.append(parent_version)
        used_parent = True

    return DSet(
        item=item,
        members=frozenset(members),
        predecessors=predecessors,
        candidates=tuple(candidates),
        used_parent_version=used_parent,
    )


def compute_d_sets_object(
    manager: TransactionManager, record: TxnRecord
) -> dict[str, DSet]:
    """D-sets for every input item of ``record`` via
    :func:`compute_d_set`."""
    assert record.parent is not None
    parent_record = manager.record(record.parent)
    order = PartialOrder(parent_record.children, parent_record.order_pairs)
    siblings = [
        child
        for child in manager.children_of(record.parent)
        if child != record.name
        and manager.phase(child) is not TxnPhase.ABORTED
    ]
    update_sets = {
        sibling: manager.record(sibling).update_set for sibling in siblings
    }
    store = manager.database.store
    d_sets: dict[str, DSet] = {}
    for item in sorted(record.input_set):
        versions = store.versions(item)
        versions_by = {
            sibling: tuple(v for v in versions if v.author == sibling)
            for sibling in siblings
        }
        d_sets[item] = compute_d_set(
            item,
            record.name,
            siblings,
            order,
            update_sets,
            versions_by,
            parent_world_version(manager, record.parent, item),
        )
    return d_sets


def parent_world_version(
    manager: TransactionManager, parent: str, item: str
) -> Version:
    """``X(parent)(item)`` read off the records: the newest release of
    the item in the parent's release log, else the parent's assigned
    version, else what the grandparent offers — a parent's version
    state covers every entity."""
    record = manager.record(parent)
    for __, released in reversed(record.release_log):
        if item in released:
            return released[item]
    if item in record.assigned:
        return record.assigned[item]
    if record.parent is None:
        return manager.database.store.initial(item)
    return parent_world_version(manager, record.parent, item)


def select_versions_dpll(
    d_sets: Mapping[str, DSet],
    constraint: Predicate,
    pinned: Mapping[str, Version] | None = None,
) -> dict[str, Version] | None:
    """:func:`~repro.protocol.validation.select_versions`'s contract,
    answered by DPLL over the CNF encoding of the candidate choice."""
    values, back = _value_index(d_sets, pinned)
    relevant = {
        name: values[name]
        for name in constraint.entities()
        if name in values
    }
    if relevant:
        chosen = solve_candidate_selection(relevant, constraint)
        if chosen is None:
            return None
    else:
        chosen = {}
    full = {name: candidates[0] for name, candidates in values.items()}
    full.update(chosen)
    return {name: back[(name, value)] for name, value in full.items()}


class ReferenceTransactionManager(TransactionManager):
    """A manager whose every validation takes the object path."""

    def _compute_d_sets(self, record: TxnRecord) -> dict[str, DSet]:
        return compute_d_sets_object(self, record)
