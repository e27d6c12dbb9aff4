"""Integration tests for the Section-5 transaction manager."""

from __future__ import annotations

import gc

import pytest

from repro.core import Domain, Predicate, Schema, Spec
from repro.errors import LockProtocolError, ProtocolError
from repro.obs import RecordingTracer
from repro.protocol import Outcome, TransactionManager, TxnPhase
from repro.storage import Database


def _database():
    schema = Schema.of("x", "y", "z", domain=Domain.interval(0, 1000))
    return Database(
        schema,
        Predicate.parse("x >= 0 & y >= 0 & z >= 0"),
        {"x": 10, "y": 20, "z": 30},
    )


@pytest.fixture
def db():
    return _database()


@pytest.fixture
def tm(db):
    return TransactionManager(db)


def _spec(i="true", o="true"):
    return Spec(Predicate.parse(i), Predicate.parse(o))


class TestDefinition:
    def test_names_follow_the_paper(self, tm):
        first = tm.define(tm.root, _spec(), {"x"})
        second = tm.define(tm.root, _spec(), {"y"})
        assert first == "t.0"
        assert second == "t.1"

    def test_cycle_in_partial_order_rejected(self, tm):
        a = tm.define(tm.root, _spec(), {"x"})
        b = tm.define(tm.root, _spec(), {"y"}, predecessors=[a])
        with pytest.raises(ProtocolError):
            # c before a but after b would close the cycle a<b<c<a.
            tm.define(
                tm.root, _spec(), {"z"},
                predecessors=[b], successors=[a],
            )

    def test_cyclic_define_names_the_parent(self, tm):
        # Under a nested parent, twelve children deep, so the cycle
        # closes through siblings whose names do not sort as created.
        parent = tm.define(tm.root, _spec(), {"x"})
        tm.validate(parent)
        chain = [tm.define(parent, _spec(), set())]
        for __ in range(11):
            chain.append(
                tm.define(parent, _spec(), set(), predecessors=[chain[-1]])
            )
        assert chain[-2:] == ["t.0.10", "t.0.11"]
        with pytest.raises(
            ProtocolError,
            match=r"defining t\.0\.12 would make t\.0's partial order "
            r"cyclic: it would both follow and precede t\.0\.2",
        ):
            tm.define(
                parent, _spec(), set(),
                predecessors=[chain[-1]], successors=[chain[2]],
            )
        # Nothing was defined: the next name is still free.
        assert tm.define(parent, _spec(), set()) == "t.0.12"

    def test_placing_a_reader_before_a_committed_author_is_refused(
        self, tm
    ):
        # t.1's only version of y would be the parent's world view,
        # which holds t.0's release: it would read its successor.
        author = tm.define(tm.root, _spec("y >= 0"), {"y"})
        tm.validate(author)
        tm.write(author, "y", 7)
        assert tm.commit(author).outcome is Outcome.OK
        with pytest.raises(
            ProtocolError,
            match=r"cannot place t\.1 before committed t\.0: "
            r"t\.1 would read y",
        ):
            tm.define(tm.root, _spec("y >= 0"), set(), successors=[author])
        # Nothing was defined: the next name is still free.
        assert tm.define(tm.root, _spec("y >= 0"), set()) == "t.1"

    def test_ordering_a_reader_before_its_author_is_refused(self, tm):
        # t.1 read t.0's y while the two were unordered; t.2 between
        # them would order t.1 before t.0.
        author = tm.define(tm.root, _spec("y >= 0"), {"y"})
        tm.validate(author)
        tm.write(author, "y", 0)
        reader = tm.define(tm.root, _spec("y >= 0"), set())
        tm.validate(reader)
        assert tm.read(reader, "y").value == 0
        with pytest.raises(
            ProtocolError,
            match=r"cannot order t\.1 before t\.0: "
            r"t\.1 was assigned t\.0's version of y",
        ):
            tm.define(
                tm.root, _spec(), set(),
                predecessors=[reader], successors=[author],
            )
        assert not tm.state.index(tm.root).precedes(reader, author)
        assert tm.define(tm.root, _spec(), set()) == "t.2"

    def test_a_refused_order_undoes_no_successor(self, tm):
        # t.2 updates y, which committed t.0 read, so the undo option
        # would undo t.0's commit; the cycle refuses t.2 first.
        read_y = tm.define(tm.root, _spec("y >= 0"), set())
        tm.validate(read_y)
        assert tm.commit(read_y).outcome is Outcome.OK
        later = tm.define(tm.root, _spec(), set(), predecessors=[read_y])
        with pytest.raises(ProtocolError, match="cyclic"):
            tm.define(
                tm.root, _spec(), {"y"},
                predecessors=[later], successors=[read_y],
                undo_committed_successors=True,
            )
        assert tm.phase(read_y) is TxnPhase.COMMITTED

        # Rule (a) refuses t.4 for t.3's release of x, which t.3 keeps
        # once t.2 is undone: the refusal comes before any undo.
        reader = tm.define(tm.root, _spec("y >= 0"), set())
        tm.validate(reader)
        tm.read(reader, "y")
        assert tm.commit(reader).outcome is Outcome.OK
        writer = tm.define(tm.root, _spec(), {"x"}, predecessors=[reader])
        tm.validate(writer)
        tm.write(writer, "x", 7)
        assert tm.commit(writer).outcome is Outcome.OK
        with pytest.raises(
            ProtocolError, match=f"before committed {writer}: .* would read x"
        ):
            tm.define(
                tm.root, _spec("x >= 0"), {"y"},
                successors=[reader],
                undo_committed_successors=True,
            )
        assert tm.phase(reader) is TxnPhase.COMMITTED

    def test_unknown_sibling_rejected(self, tm):
        with pytest.raises(ProtocolError):
            tm.define(tm.root, _spec(), {"x"}, predecessors=["t.9"])

    def test_unknown_entity_rejected(self, tm):
        with pytest.raises(ProtocolError):
            tm.define(tm.root, _spec(), {"nope"})

    def test_placement_before_committed_reader_prohibited(self, tm):
        reader = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(reader)
        tm.read(reader, "x")
        assert tm.commit(reader).outcome is Outcome.OK
        # New transaction updating x, placed before the committed
        # reader of x: the paper prohibits this construction.
        with pytest.raises(ProtocolError, match="committed"):
            tm.define(
                tm.root, _spec(), {"x"}, successors=[reader]
            )

    def test_placement_before_committed_nonreader_allowed(self, tm):
        other = tm.define(tm.root, _spec("y >= 0"), set())
        tm.validate(other)
        tm.commit(other)
        name = tm.define(tm.root, _spec(), {"x"}, successors=[other])
        assert name == "t.1"

    def test_data_accessor_cannot_nest(self, tm):
        leaf = tm.define(tm.root, _spec("x >= 0"), {"x"})
        tm.validate(leaf)
        tm.read(leaf, "x")
        with pytest.raises(ProtocolError, match="data accesses"):
            tm.define(leaf, _spec(), {"y"})

    def test_nester_cannot_access_data(self, tm):
        parent = tm.define(tm.root, _spec("x >= 0"), {"x", "y"})
        tm.validate(parent)
        tm.define(parent, _spec(), {"y"})
        with pytest.raises(ProtocolError, match="subtransactions"):
            tm.read(parent, "x")


class TestValidation:
    def test_assigns_versions_satisfying_input(self, tm):
        txn = tm.define(tm.root, _spec("x >= 5"), set())
        result = tm.validate(txn)
        assert result.outcome is Outcome.OK
        assert tm.assigned_versions(txn)["x"].value >= 5
        assert tm.phase(txn) is TxnPhase.VALIDATED

    def test_unsatisfiable_input_aborts(self, tm):
        txn = tm.define(tm.root, _spec("x >= 500"), set())
        result = tm.validate(txn)
        assert result.outcome is Outcome.FAILED
        assert tm.phase(txn) is TxnPhase.ABORTED

    def test_blocked_by_in_flight_write(self, tm):
        writer = tm.define(tm.root, _spec(), {"x"})
        tm.validate(writer)
        tm.begin_write(writer, "x")
        reader = tm.define(tm.root, _spec("x >= 0"), set())
        result = tm.validate(reader)
        assert result.outcome is Outcome.BLOCKED
        assert result.blocked_on == "x"
        # Completing the write unblocks and validation then succeeds.
        write_result = tm.end_write(writer, "x", 99)
        assert reader in write_result.unblocked
        assert tm.validate(reader).outcome is Outcome.OK

    def test_validate_twice_rejected(self, tm):
        txn = tm.define(tm.root, _spec(), set())
        tm.validate(txn)
        with pytest.raises(ProtocolError):
            tm.validate(txn)

    def test_sibling_version_visible_after_write(self, tm):
        writer = tm.define(tm.root, _spec(), {"x"})
        tm.validate(writer)
        tm.write(writer, "x", 500)
        # A fresh sibling needing x >= 500 can only use writer's version.
        reader = tm.define(tm.root, _spec("x >= 500"), set())
        assert tm.validate(reader).outcome is Outcome.OK
        assert tm.assigned_versions(reader)["x"].author == writer


class TestExecution:
    def test_read_requires_validation(self, tm):
        txn = tm.define(tm.root, _spec("x >= 0"), set())
        with pytest.raises(ProtocolError):
            tm.read(txn, "x")

    def test_read_outside_input_set_rejected(self, tm):
        txn = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(txn)
        with pytest.raises(LockProtocolError):
            tm.read(txn, "y")  # no R_v lock on y

    def test_write_outside_update_set_rejected(self, tm):
        txn = tm.define(tm.root, _spec(), {"x"})
        tm.validate(txn)
        with pytest.raises(ProtocolError, match="update set"):
            tm.begin_write(txn, "y")

    def test_read_returns_assigned_version(self, tm):
        txn = tm.define(tm.root, _spec("y >= 0"), set())
        tm.validate(txn)
        assert tm.read(txn, "y").value == 20

    def test_concurrent_sibling_writes_allowed(self, tm):
        a = tm.define(tm.root, _spec(), {"x"})
        b = tm.define(tm.root, _spec(), {"x"})
        tm.validate(a)
        tm.validate(b)
        tm.begin_write(a, "x")
        tm.begin_write(b, "x")  # never blocks
        tm.end_write(a, "x", 1)
        tm.end_write(b, "x", 2)
        assert tm.database.store.values_of("x") == {10, 1, 2}

    def test_reader_blocks_only_during_write(self, tm):
        writer = tm.define(tm.root, _spec(), {"y"})
        reader = tm.define(tm.root, _spec("y >= 0"), set())
        tm.validate(writer)
        tm.validate(reader)
        tm.begin_write(writer, "y")
        blocked = tm.read(reader, "y")
        assert blocked.outcome is Outcome.BLOCKED
        result = tm.end_write(writer, "y", 77)
        assert reader in result.unblocked
        assert tm.read(reader, "y").outcome is Outcome.OK


class TestReevalIntegration:
    def test_predecessor_write_reassigns_validating_successor(self, tm):
        pred = tm.define(tm.root, _spec(), {"x"})
        succ = tm.define(
            tm.root, _spec("x >= 0"), set(), predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(succ)
        result = tm.write(pred, "x", 42)
        assert succ in result.reassigned
        assert tm.assigned_versions(succ)["x"].value == 42

    def test_predecessor_write_aborts_reader_successor(self, tm):
        tracer = RecordingTracer()
        tm.set_tracer(tracer)
        pred = tm.define(tm.root, _spec(), {"x"})
        succ = tm.define(
            tm.root, _spec("x >= 0"), set(), predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(succ)
        tm.read(succ, "x")  # reads the stale initial version
        result = tm.write(pred, "x", 42)
        assert succ in result.aborted
        assert tm.phase(succ) is TxnPhase.ABORTED
        reasons = [
            event
            for event in tracer.of_kind("abort")
            if event.txn == succ
        ]
        assert "partial-order invalidation" in reasons[0].attrs["reason"]

    def test_incomparable_sibling_write_is_harmless(self, tm):
        a = tm.define(tm.root, _spec(), {"x"})
        b = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(a)
        tm.validate(b)
        tm.read(b, "x")
        result = tm.write(a, "x", 42)
        assert b not in result.aborted
        assert tm.phase(b) is TxnPhase.VALIDATED

    def test_reassignment_failure_aborts(self, tm):
        pred = tm.define(tm.root, _spec(), {"x"})
        # Successor insists on the initial value, which the
        # predecessor's new version supersedes.
        succ = tm.define(
            tm.root, _spec("x = 10"), set(), predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(succ)
        result = tm.write(pred, "x", 42)
        assert succ in result.aborted


class TestTermination:
    def test_commit_requires_predecessors(self, tm):
        a = tm.define(tm.root, _spec(), set())
        b = tm.define(tm.root, _spec(), set(), predecessors=[a])
        tm.validate(a)
        tm.validate(b)
        result = tm.commit(b)
        assert result.outcome is Outcome.FAILED
        assert "predecessor" in result.reason
        tm.commit(a)
        assert tm.commit(b).outcome is Outcome.OK

    def test_commit_requires_children_terminated(self, tm):
        parent = tm.define(tm.root, _spec(), {"x"})
        tm.validate(parent)
        child = tm.define(parent, _spec(), {"x"})
        result = tm.commit(parent)
        assert result.outcome is Outcome.FAILED
        assert "subtransaction" in result.reason
        tm.validate(child)
        tm.commit(child)
        assert tm.commit(parent).outcome is Outcome.OK

    def test_commit_requires_output_condition(self, tm):
        txn = tm.define(tm.root, _spec("true", "x = 777"), {"x"})
        tm.validate(txn)
        result = tm.commit(txn)
        assert result.outcome is Outcome.FAILED
        assert "output" in result.reason
        tm.write(txn, "x", 777)
        assert tm.commit(txn).outcome is Outcome.OK

    def test_commit_releases_writes_to_parent_world(self, tm):
        parent = tm.define(tm.root, _spec(), {"x"})
        tm.validate(parent)
        child = tm.define(parent, _spec(), {"x"})
        tm.validate(child)
        tm.write(child, "x", 111)
        tm.commit(child)
        tm.commit(parent)
        assert tm.view(tm.root)["x"] == 111

    def test_abort_cascades_to_readers(self, tm):
        writer = tm.define(tm.root, _spec(), {"x"})
        tm.validate(writer)
        tm.write(writer, "x", 42)
        reader = tm.define(tm.root, _spec("x = 42"), set())
        tm.validate(reader)
        tm.read(reader, "x")
        aborted = tm.abort(writer)
        assert set(aborted) == {writer, reader}
        assert tm.phase(reader) is TxnPhase.ABORTED

    def test_abort_reassigns_validating_dependents(self, tm):
        writer = tm.define(tm.root, _spec(), {"x"})
        tm.validate(writer)
        tm.write(writer, "x", 42)
        other = tm.define(tm.root, _spec("x >= 0"), set())
        tm.validate(other)
        # `other` may have been assigned the 42-version; the abort
        # must leave it on a surviving version.
        tm.abort(writer)
        assert tm.phase(other) is TxnPhase.VALIDATED
        assert tm.assigned_versions(other)["x"].value == 10

    def test_abort_expunges_versions(self, tm):
        writer = tm.define(tm.root, _spec(), {"x"})
        tm.validate(writer)
        tm.write(writer, "x", 42)
        tm.abort(writer)
        assert tm.database.store.values_of("x") == {10}

    def test_abort_subtree(self, tm):
        parent = tm.define(tm.root, _spec(), {"x"})
        tm.validate(parent)
        child = tm.define(parent, _spec(), {"x"})
        tm.validate(child)
        tm.write(child, "x", 5)
        aborted = tm.abort(parent)
        assert set(aborted) == {parent, child}
        assert tm.database.store.values_of("x") == {10}


class TestVerification:
    def test_clean_run_verifies(self, tm):
        a = tm.define(tm.root, _spec("x >= 0", "x >= 0"), {"x"})
        b = tm.define(
            tm.root,
            _spec("x >= 0 & y >= 0", "y >= 0"),
            {"y"},
            predecessors=[a],
        )
        tm.validate(a)
        tm.validate(b)
        tm.read(a, "x")
        tm.write(a, "x", 15)
        tm.commit(a)
        tm.read(b, "x")
        tm.read(b, "y")
        tm.write(b, "y", 25)
        tm.commit(b)
        tm.commit(tm.root)
        assert tm.verify_parent_based(tm.root) == []
        assert tm.verify_correctness(tm.root) == []


class TestNoPerStepRetention:
    """An untraced manager records its steps nowhere: what it retains
    depends on the transactions and versions, not on how many steps
    (repeated reads, validation retries) they took."""

    @staticmethod
    def _retained(tm) -> int:
        """Objects reachable from the manager's own state (instances of
        ``repro`` classes and the builtin containers holding them)."""
        containers = (dict, list, set, frozenset, tuple)
        seen: set[int] = set()
        stack = [tm]
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            stack.extend(
                ref
                for ref in gc.get_referents(obj)
                if isinstance(ref, containers)
                or type(ref).__module__.startswith("repro.")
            )
        return len(seen)

    @staticmethod
    def _run(reads_per_txn: int):
        tm = TransactionManager(_database())
        for index in range(300):
            txn = tm.define(tm.root, _spec("x >= 0 & y >= 0"), {"z"})
            tm.validate(txn)
            for _ in range(reads_per_txn):
                tm.read(txn, "x")
                tm.read(txn, "y")
            tm.write(txn, "z", index % 1000)
            assert tm.commit(txn).outcome is Outcome.OK
        return tm

    def test_retained_state_is_independent_of_step_count(self):
        few = self._run(reads_per_txn=1)
        many = self._run(reads_per_txn=6)  # +3000 steps
        assert self._retained(many) == self._retained(few)
