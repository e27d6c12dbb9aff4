"""Differential property tests: bitmask validation vs the object path.

The manager computes §5.1 D-sets through the
:class:`~repro.protocol.fastpath.ParentIndex` bitmask encoding, which
the protocol state keeps current; the direct transcription of the
three exclusion rules (:func:`repro.reference.compute_d_sets_object` →
:func:`~repro.reference.validation.compute_d_set`) is the oracle, and
:class:`repro.reference.ReferenceTransactionManager` validates through
it.  These tests drive the two managers in lockstep through identical
seeded command sequences — including write-triggered cascading aborts,
predecessor chains, successors, nested parents and more than ten
children, where creation order (the index's bit order) and sorted-name
order part — and require agreement on every outcome and assignment;
they hold the two D-set computations against each other on the very
same manager state (candidates compared as a multiset), and after
every step they hold each maintained index equal to a rebuild from the
records, on the live state and on one redone from the WAL.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Domain, PartialOrder, Predicate, Schema, Spec
from repro.durability import DurableTransactionManager
from repro.errors import PartialOrderViolation, ProtocolError
from repro.protocol import (
    DSet,
    Outcome,
    ProtocolState,
    TransactionManager,
    TxnPhase,
)
from repro.reference import (
    ReferenceTransactionManager,
    compute_d_sets_object,
)
from repro.storage import Database

from ..durability.shadow import attach_shadow

ENTITIES = ("x", "y", "z")
#: Touched only inside the nested parent's subtree, besides the root's
#: entities (see ``_Session``).
NESTED = ("v", "w")


def _database(entities: tuple[str, ...] = ENTITIES) -> Database:
    schema = Schema.of(*entities, domain=Domain.interval(0, 10_000))
    constraint = Predicate.parse(
        " & ".join(f"{name} >= 0" for name in entities)
    )
    return Database(schema, constraint, {name: 1 for name in entities})


def _managers() -> tuple[TransactionManager, TransactionManager]:
    return (
        TransactionManager(_database()),
        ReferenceTransactionManager(_database()),
    )


def _snapshot(tm: TransactionManager, reasons: bool = True) -> dict:
    state: dict = {"versions": {}, "txns": {}}
    for entity in tm.database.schema.names:
        state["versions"][entity] = [
            (v.entity, v.author, v.sequence, v.value)
            for v in tm.database.store.versions(entity)
        ]
    for record in tm.iter_records():
        if record.parent is None:
            continue
        state["txns"][record.name] = (
            record.phase,
            dict(record.assigned),
            dict(record.writes),
            record.abort_reason if reasons else None,
        )
    return state


def _index_current(state: ProtocolState) -> None:
    """Each parent's maintained index equals a rebuild from its
    records, and both equal the records' own ``P+`` closure, live set
    and updaters — masks compared by name."""
    records = state.records
    for record in list(records.values()):
        if not record.children:
            continue
        kept = state.index(record.name).describe()
        assert kept == state.rebuild_index(record.name).describe(), (
            record.name
        )
        order = PartialOrder(record.children, record.order_pairs)
        updaters: dict[str, set[str]] = {}
        for child in record.children:
            for item in records[child].update_set:
                updaters.setdefault(item, set()).add(child)
        assert kept == {
            "children": frozenset(record.children),
            "pred": {c: order.predecessors(c) for c in record.children},
            "succ": {c: order.successors(c) for c in record.children},
            "live": frozenset(
                child
                for child in record.children
                if records[child].phase is not TxnPhase.ABORTED
            ),
            "updaters": updaters,
        }, record.name


def _lockstep(fast, slow, step, reasons: bool = True):
    """Apply one closure to both managers; outcomes must agree, and
    each manager's indexes must be current afterwards.  ``reasons``:
    compare abort reasons (a checkpoint does not keep them)."""
    results = []
    for tm in (fast, slow):
        try:
            results.append(("ok", step(tm)))
        except ProtocolError as error:
            results.append(("err", str(error)))
    assert results[0] == results[1], results
    assert _snapshot(fast, reasons) == _snapshot(slow, reasons)
    _index_current(fast.state)
    _index_current(slow.state)
    return results[0]


def _canonical(d_sets: dict[str, DSet]) -> dict[str, DSet]:
    """D-sets with candidates as a multiset: the index lists them in
    version creation order, the object path by sibling name, and
    selection depends on neither."""
    return {
        item: replace(
            d_set,
            candidates=tuple(
                sorted(d_set.candidates, key=lambda v: v.sequence)
            ),
        )
        for item, d_set in d_sets.items()
    }


def _dsets_agree(tm: TransactionManager, txn: str) -> None:
    """The two D-set computations agree on identical manager state."""
    record = tm.record(txn)
    fast_sets = _canonical(TransactionManager._compute_d_sets(tm, record))
    object_sets = _canonical(compute_d_sets_object(tm, record))
    assert fast_sets == object_sets, (txn, fast_sets, object_sets)


actions = st.lists(
    st.tuples(
        st.sampled_from(["define", "read", "write", "commit", "abort"]),
        st.integers(min_value=0, max_value=2**20),
    ),
    min_size=8,
    max_size=40,
)


@settings(max_examples=40, deadline=None)
@given(actions=actions, seed=st.integers(min_value=0, max_value=10_000))
def test_fast_and_object_validation_agree(actions, seed):
    rng = random.Random(seed)
    fast, slow = _managers()
    live: list[str] = []

    for action, draw in actions:
        pick = random.Random(draw)
        if action == "define" or not live:
            reads = pick.sample(ENTITIES, pick.randint(1, 2))
            writes = set(pick.sample(ENTITIES, pick.randint(0, 2)))
            constraint = " & ".join(f"{e} >= 0" for e in reads)
            candidates = [
                t
                for t in live
                if fast.phase(t)
                in (TxnPhase.VALIDATED, TxnPhase.COMMITTED)
            ]
            predecessors = (
                [pick.choice(candidates)]
                if candidates and pick.random() < 0.4
                else []
            )
            spec = Spec(Predicate.parse(constraint), Predicate.true())

            def define_and_validate(tm):
                txn = tm.define(
                    tm.root, spec, writes, predecessors=predecessors
                )
                result = tm.validate(txn)
                return (txn, result.outcome, dict(tm.record(txn).assigned))

            kind, value = _lockstep(fast, slow, define_and_validate)
            if kind == "ok" and value[1] is Outcome.OK:
                live.append(value[0])
                _dsets_agree(fast, value[0])
                _dsets_agree(slow, value[0])
        else:
            txn = pick.choice(live)
            if fast.phase(txn) is not TxnPhase.VALIDATED:
                continue
            record = fast.record(txn)
            if action == "read" and record.input_set:
                item = pick.choice(sorted(record.input_set))
                _lockstep(fast, slow, lambda tm: tm.read(txn, item).value)
            elif action == "write" and record.update_set:
                item = pick.choice(sorted(record.update_set))
                value = pick.randint(0, 10_000)

                def write(tm):
                    result = tm.write(txn, item, value)
                    # Cascading aborts must fall identically.
                    return tuple(result.aborted)

                _lockstep(fast, slow, write)
            elif action == "commit":
                _lockstep(
                    fast, slow, lambda tm: tm.commit(txn).outcome
                )
            elif action == "abort":
                _lockstep(
                    fast, slow, lambda tm: tuple(tm.abort(txn))
                )
    rng.shuffle(live)
    for txn in live:  # drain both the same way
        if fast.phase(txn) is TxnPhase.VALIDATED:
            _lockstep(fast, slow, lambda tm: tm.commit(txn).outcome)
    assert _snapshot(fast) == _snapshot(slow)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_d_sets_agree_under_aborted_and_intervening_updaters(seed):
    """Rule-3 and predecessor-rule shapes, checked on one manager.

    Builds chains with explicit predecessor edges, live and aborted
    intervening updaters, then compares the bitmask D-sets with the
    rule-by-rule oracle for every still-active child.
    """
    rng = random.Random(seed)
    tm = TransactionManager(_database())
    validated: list[str] = []
    for _ in range(8):
        writes = set(rng.sample(ENTITIES, rng.randint(1, 2)))
        predecessors = (
            rng.sample(validated, rng.randint(0, min(2, len(validated))))
            if validated
            else []
        )
        txn = tm.define(
            tm.root,
            Spec(Predicate.parse("x >= 0"), Predicate.true()),
            writes,
            predecessors=predecessors,
        )
        if tm.validate(txn).outcome is not Outcome.OK:
            continue
        validated.append(txn)
        roll = rng.random()
        if roll < 0.3:
            for entity in sorted(tm.record(txn).update_set):
                tm.write(txn, entity, rng.randint(0, 100))
            tm.commit(txn)
        elif roll < 0.5:
            tm.abort(txn)
            validated.remove(txn)
        for peer in validated:
            if tm.phase(peer) is TxnPhase.VALIDATED:
                _dsets_agree(tm, peer)


# -- past ten children: creation order is not name order -----------------


def _closes_cycle(
    tm: TransactionManager,
    parent: str,
    predecessors: list[str],
    successors: list[str],
) -> bool:
    """Would the placement make ``P`` cyclic?  Asked of a
    :class:`PartialOrder`, independently of the manager's index."""
    record = tm.record(parent)
    pairs = set(record.order_pairs)
    pairs.update((pred, "new") for pred in predecessors)
    pairs.update(("new", succ) for succ in successors)
    try:
        PartialOrder([*record.children, "new"], pairs)
    except PartialOrderViolation:
        return True
    return False


def _orders_before_a_writer(
    tm: TransactionManager,
    parent: str,
    predecessors: list[str],
    successors: list[str],
) -> tuple[bool, bool]:
    """Would the placement order a reader before the sibling it reads
    from?  (a) the last release into the parent's world of any item
    (the new child, or a child nested under it, may read it) came from
    a sibling that would follow it; (b) a sibling that would precede
    the new child is assigned a version written in the subtree of one
    that would follow it.  Asked of a
    :class:`PartialOrder` and the records, independently of the
    manager's index and helpers; ``define`` must refuse both."""
    record = tm.record(parent)
    pairs = set(record.order_pairs)
    pairs.update((pred, "new") for pred in predecessors)
    pairs.update(("new", succ) for succ in successors)
    order = PartialOrder([*record.children, "new"], pairs)
    following = set(order.successors("new"))

    def sibling_of(author):
        while author is not None and tm.record(author).parent != parent:
            author = tm.record(author).parent
        return author

    def subtree_versions(txn):
        """What ``txn``'s subtree reads: its live or committed
        members' assigned versions."""
        member = tm.record(txn)
        if member.phase is TxnPhase.ABORTED:
            return []
        versions = list(member.assigned.values())
        for child in member.children:
            versions.extend(subtree_versions(child))
        return versions

    releaser = {}
    for child, released in record.release_log:
        for item in released:
            releaser[item] = child
    reads_a_follower = any(child in following for child in releaser.values())
    holds_a_follower = any(
        sibling_of(version.author) in following
        for reader in record.children
        if order.precedes(reader, "new")
        for version in subtree_versions(reader)
    )
    return reads_a_follower, holds_a_follower


class _Session:
    """A durable manager, its WAL shadow and a reference manager, in
    lockstep; after every step both states' D-sets and indexes are
    checked, and the shadow replica's indexes too.  After a restart
    there is no shadow, and abort reasons are not compared.

    The nested parent's subtree runs over the root's entities as well
    as its own, so its children read versions the root's world view
    offers, and a sibling ordered around the nest is judged by what the
    nest's subtree holds."""

    def __init__(self, wal_dir, seed: int) -> None:
        self.wal_dir = wal_dir
        self.rng = random.Random(seed)
        database = partial(_database, ENTITIES + NESTED)
        self.fast, __ = DurableTransactionManager.open(wal_dir, database)
        self.shadow = attach_shadow(self.fast, wal_dir)
        self.slow = ReferenceTransactionManager(database())
        self.defined: list[str] = []

    def step(self, action):
        outcome = _lockstep(
            self.fast, self.slow, action, reasons=self.shadow is not None
        )
        if self.shadow is not None:
            _index_current(self.shadow.replica)
        for tm in (self.fast, self.slow):
            for name in list(tm.state.active):
                record = tm.record(name)
                if record.parent is not None and not record.children:
                    _dsets_agree(tm, name)
        return outcome

    def define(self, parent: str) -> str | None:
        rng = self.rng
        siblings = list(self.fast.children_of(parent))
        predecessors = rng.sample(
            siblings, min(len(siblings), rng.choice([0, 0, 1, 2]))
        )
        successors = (
            rng.sample(siblings, 1)
            if siblings and rng.random() < 0.3
            else []
        )
        entities = ENTITIES if parent == self.fast.root else ENTITIES + NESTED
        reads = rng.sample(entities, rng.randint(1, 2))
        writes = set(rng.sample(entities, rng.randint(0, 2)))
        spec = Spec(
            Predicate.parse(" & ".join(f"{e} >= 0" for e in reads)),
            Predicate.true(),
        )
        cyclic = _closes_cycle(self.fast, parent, predecessors, successors)
        reads_a_follower, holds_a_follower = (
            (False, False)
            if cyclic
            else _orders_before_a_writer(
                self.fast, parent, predecessors, successors
            )
        )
        kind, value = self.step(
            lambda tm: tm.define(
                parent,
                spec,
                writes,
                predecessors=predecessors,
                successors=successors,
            )
        )
        # (b) is checked before a committed successor's update clash,
        # (a) after it; each refusal happens exactly when it is due.
        clash = any(
            self.fast.phase(succ) is TxnPhase.COMMITTED
            and writes & self.fast.record(succ).input_set
            for succ in successors
        )
        if holds_a_follower:
            assert kind == "err" and value.startswith("cannot order"), value
        elif reads_a_follower and not clash:
            assert kind == "err" and "would read" in value, value
        if kind == "err":
            assert holds_a_follower == value.startswith("cannot order"), value
            if "would read" in value:
                assert reads_a_follower, value
            if "cyclic" in value:
                assert cyclic and f"{parent}'s partial order" in value
            return None
        assert not cyclic
        self.defined.append(value)
        self.step(lambda tm: tm.validate(value).outcome)
        return value

    def act(self, txn: str) -> None:
        record = self.fast.record(txn)
        if record.phase is TxnPhase.DEFINED:
            self.step(lambda tm: tm.validate(txn).outcome)
            return
        if record.phase is not TxnPhase.VALIDATED:
            return
        rng = self.rng
        action = rng.choice(["read", "write", "write", "commit", "abort"])
        if record.children:
            action = rng.choice(["commit", "abort"])
        if action == "read" and record.input_set:
            item = rng.choice(sorted(record.input_set))
            self.step(lambda tm: tm.read(txn, item).value)
        elif action == "write" and record.update_set:
            item = rng.choice(sorted(record.update_set))
            value = rng.randint(0, 10_000)
            self.step(
                lambda tm: tuple(tm.write(txn, item, value).aborted)
            )
        elif action == "commit":
            self.step(lambda tm: tm.commit(txn).outcome)
        elif action == "abort":
            self.step(lambda tm: tuple(tm.abort(txn)))

    def drain(self) -> None:
        progress = True
        while progress:
            progress = False
            for txn in reversed(self.defined):
                if self.fast.phase(txn) is TxnPhase.VALIDATED:
                    kind, outcome = self.step(
                        lambda tm: tm.commit(txn).outcome
                    )
                    progress |= outcome is Outcome.OK
        for txn in reversed(self.defined):
            if not self.fast.record(txn).terminated:
                self.step(lambda tm: tuple(tm.abort(txn)))


# Seed 6 is the first whose session meets a refusal by rule (a) alone,
# and 14 the first that meets one by rule (b) (see ``_Session.define``).
@pytest.mark.parametrize("seed", [*range(7), 14])
def test_lockstep_past_ten_children(tmp_path, seed):
    """More than ten children, successors, aborts and a nested parent,
    then a restart from the closing checkpoint and more of the same."""
    session = _Session(tmp_path / "wal", seed)
    root = session.fast.root
    spec = Spec(Predicate.true(), Predicate.true())
    __, nest = session.step(
        lambda tm: tm.define(root, spec, {*ENTITIES, *NESTED})
    )
    session.step(lambda tm: tm.validate(nest).outcome)
    for __ in range(90):
        if session.rng.random() < 0.35:
            session.define(nest if session.rng.random() < 0.3 else root)
        elif session.defined:
            session.act(session.rng.choice(session.defined))
    session.defined.append(nest)  # terminates with the drain
    session.drain()

    # Restart: the recovered state builds its indexes from the
    # checkpointed records, then keeps them current.
    session.fast.close()
    session.fast, recovery = DurableTransactionManager.open(session.wal_dir)
    assert recovery is not None and recovery.verified
    session.shadow = None
    _index_current(session.fast.state)
    for __ in range(30):
        if session.rng.random() < 0.4:
            session.define(root)
        else:
            session.act(session.rng.choice(session.defined))
    session.drain()
    session.fast.close()

    children = session.fast.children_of(root)
    assert len(children) >= 12 and "t.10" in children
    assert session.fast.children_of(nest)
