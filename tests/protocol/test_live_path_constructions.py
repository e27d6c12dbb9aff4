"""The live path builds no partial order and never rebuilds an index.

A host-independent guard on per-transaction cost: instead of timing,
count constructions.  Over 500 serial oltp transactions — plus
successor placements, aborts and a nested parent — each parent's
:class:`~repro.protocol.fastpath.ParentIndex` is built once (the state
keeps it current from then on), and ``define``, ``validate``,
``read``, ``write``, ``commit`` and ``abort`` construct no
:class:`~repro.core.orders.PartialOrder`; only the Lemma-4 oracle
``verify_parent_based`` does.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import PartialOrder, Predicate, Spec
from repro.protocol import Outcome, TransactionManager, TxnPhase
from repro.protocol.fastpath import ParentIndex
from repro.workload.families import oltp_workload


@pytest.fixture
def built(monkeypatch) -> Counter:
    counts: Counter = Counter()
    for cls in (PartialOrder, ParentIndex):
        original = cls.__init__

        def counted(self, *args, _original=original, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def _define(tm, parent, txn, **placement) -> str:
    spec = Spec(Predicate.parse(txn.input), Predicate.parse(txn.output))
    return tm.define(parent, spec, txn.updates, **placement)


def _run(tm, name, txn, abort: bool = False) -> None:
    assert tm.validate(name).outcome is Outcome.OK
    seen: dict[str, int] = {}
    for op in txn.ops:
        if op[0] == "read":
            seen[op[1]] = tm.read(name, op[1]).value
        elif op[0] == "bump":
            entity, source, delta, high = op[1:5]
            tm.write(name, entity, min(high, seen.get(source, 0) + delta))
    if abort:
        tm.abort(name)
    else:
        assert tm.commit(name).outcome is Outcome.OK


def test_serial_oltp_builds_each_index_once_and_no_partial_order(built):
    workload = oltp_workload(num_transactions=500, seed=1)
    txns = [script.to_txn() for script in workload.scripts]
    tm = TransactionManager(workload.fresh_database())
    root = tm.root

    # A nested parent whose children run one after the other.
    nest = _define(tm, root, txns[0])
    assert tm.validate(nest).outcome is Outcome.OK
    for txn in txns[1:4]:
        _run(tm, _define(tm, nest, txn), txn)
    assert tm.commit(nest).outcome is Outcome.OK

    rest = txns[4:]
    for number in range(0, len(rest) - 1, 2):
        first, second = rest[number], rest[number + 1]
        if number % 10 == 0:
            # The later-defined one is placed before the earlier one,
            # which can commit only after it.
            late = _define(tm, root, first)
            early = _define(tm, root, second, successors=[late])
            _run(tm, early, second)
            _run(tm, late, first)
        else:
            _run(tm, _define(tm, root, first), first, abort=number % 7 == 1)
            _run(tm, _define(tm, root, second), second)

    assert len(tm.children_of(root)) == 497
    assert any(
        tm.phase(child) is TxnPhase.ABORTED for child in tm.children_of(root)
    )
    assert built == {"ParentIndex": 2}
    assert tm.verify_parent_based(root) == []
    assert built == {"ParentIndex": 2, "PartialOrder": 1}
