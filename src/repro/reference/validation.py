"""§5.1 D-sets computed rule by rule over the manager's objects."""

from __future__ import annotations

from ..protocol.scheduler import TransactionManager, TxnPhase, TxnRecord
from ..protocol.validation import DSet, compute_d_set


def compute_d_sets_object(
    manager: TransactionManager, record: TxnRecord
) -> dict[str, DSet]:
    """D-sets for every input item of ``record`` via
    :func:`~repro.protocol.validation.compute_d_set`."""
    assert record.parent is not None
    order = manager.order_of(record.parent)
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
            manager._parent_world_version(record.parent, item),
        )
    return d_sets


class ReferenceTransactionManager(TransactionManager):
    """A manager whose every validation takes the object path."""

    def _compute_d_sets(self, record: TxnRecord) -> dict[str, DSet]:
        return compute_d_sets_object(self, record)
