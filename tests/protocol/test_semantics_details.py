"""Fine-grained protocol semantics the paper's prose pins down."""

from __future__ import annotations

import pytest

from repro.core import Domain, Predicate, Schema, Spec
from repro.protocol import Outcome, TransactionManager, TxnPhase, scheduler
from repro.storage import Database

from .selection import STRATEGIES


@pytest.fixture
def db():
    schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))
    return Database(
        schema,
        Predicate.parse("x >= 0 & y >= 0"),
        {"x": 10, "y": 20},
    )


def _spec(i="true", o="true"):
    return Spec(Predicate.parse(i), Predicate.parse(o))


class TestReadSemantics:
    def test_reads_serve_the_assigned_input_state(self, db):
        """A transaction is a mapping from its *input* version state:
        reads return the assigned version even after an own write."""
        tm = TransactionManager(db)
        txn = tm.define(tm.root, _spec("x >= 0"), {"x"})
        tm.validate(txn)
        assert tm.read(txn, "x").value == 10
        tm.write(txn, "x", 500)
        # The read still sees the input state, not the own write…
        assert tm.read(txn, "x").value == 10
        # …while the world view (used for O_t) sees the write.
        assert tm.view(txn)["x"] == 500

    def test_abort_due_to_read_lock_on_item_it_writes(self, db):
        """The paper's parenthetical: a transaction can abort because
        of its read lock on a data item it is itself writing."""
        tm = TransactionManager(db)
        pred = tm.define(tm.root, _spec(), {"x"})
        both = tm.define(
            tm.root, _spec("x >= 0"), {"x"}, predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(both)
        tm.read(both, "x")  # R lock on x…
        tm.begin_write(both, "x")  # …while also writing it
        result = tm.write(pred, "x", 42)
        assert both in result.aborted


class TestDeepNesting:
    def test_view_composes_through_levels(self, db):
        tm = TransactionManager(db)
        top = tm.define(tm.root, _spec(), {"x", "y"})
        tm.validate(top)
        mid = tm.define(top, _spec(), {"x", "y"})
        tm.validate(mid)
        leaf_x = tm.define(mid, _spec(), {"x"})
        leaf_y = tm.define(mid, _spec(), {"y"})
        tm.validate(leaf_x)
        tm.validate(leaf_y)
        tm.write(leaf_x, "x", 111)
        tm.write(leaf_y, "y", 222)
        tm.commit(leaf_x)
        # Only leaf_x's write has been released to mid so far.
        assert tm.view(mid)["x"] == 111
        assert tm.view(top)["x"] == 10  # not yet released to top
        tm.commit(leaf_y)
        tm.commit(mid)
        assert tm.view(top) == {"x": 111, "y": 222}
        tm.commit(top)
        assert tm.view(tm.root) == {"x": 111, "y": 222}

    def test_output_condition_at_each_level(self, db):
        tm = TransactionManager(db)
        top = tm.define(
            tm.root, _spec("true", "x = 5 & y = 6"), {"x", "y"}
        )
        tm.validate(top)
        first = tm.define(top, _spec("true", "x = 5"), {"x"})
        second = tm.define(top, _spec("true", "y = 6"), {"y"})
        tm.validate(first)
        tm.validate(second)
        tm.write(first, "x", 5)
        tm.write(second, "y", 6)
        assert tm.commit(first).outcome is Outcome.OK
        assert tm.commit(second).outcome is Outcome.OK
        assert tm.commit(top).outcome is Outcome.OK


class TestAlternativeSelectorsEndToEnd:
    @pytest.mark.parametrize("select", STRATEGIES)
    def test_full_session(self, db, monkeypatch, select):
        monkeypatch.setattr(scheduler, "select_versions", select)
        tm = TransactionManager(db)
        writer = tm.define(tm.root, _spec(), {"x"})
        tm.validate(writer)
        tm.write(writer, "x", 900)
        # Only the initial x satisfies I_t; the newer 900 is passed over.
        picky = tm.define(
            tm.root, _spec("x <= 100 & y >= 0"), set()
        )
        assert tm.validate(picky).outcome is Outcome.OK
        assert tm.assigned_versions(picky)["x"].value == 10
        tm.commit(writer)
        assert tm.read(picky, "x").value == 10
        assert tm.commit(picky).outcome is Outcome.OK
        assert tm.verify_correctness(tm.root) == []


class TestAbortedPredecessorRule:
    def test_successor_commits_past_aborted_predecessor(self, db):
        tm = TransactionManager(db)
        pred = tm.define(tm.root, _spec(), {"x"})
        succ = tm.define(
            tm.root, _spec("y >= 0"), set(), predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(succ)
        tm.read(succ, "y")
        tm.abort(pred)
        # The aborted predecessor no longer gates the commit.
        assert tm.phase(succ) is TxnPhase.VALIDATED
        assert tm.commit(succ).outcome is Outcome.OK
