"""Differential property tests: bitmask validation vs the object path.

The manager computes §5.1 D-sets through the
:class:`~repro.protocol.fastpath.ParentIndex` bitmask encoding; the
direct transcription of the three exclusion rules
(:func:`repro.reference.compute_d_sets_object` →
:func:`~repro.reference.validation.compute_d_set`) is the oracle, and
:class:`repro.reference.ReferenceTransactionManager` validates through
it.  These tests drive the two managers in lockstep through identical
seeded command sequences — including write-triggered cascading aborts
and predecessor chains — and require byte-for-byte agreement on every
outcome, and they hold the two D-set computations against each other
on the very same manager state.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Domain, Predicate, Schema, Spec
from repro.errors import ProtocolError
from repro.protocol import Outcome, TransactionManager, TxnPhase
from repro.reference import (
    ReferenceTransactionManager,
    compute_d_sets_object,
)
from repro.storage import Database

ENTITIES = ("x", "y", "z")


def _database() -> Database:
    schema = Schema.of(*ENTITIES, domain=Domain.interval(0, 10_000))
    constraint = Predicate.parse(
        " & ".join(f"{name} >= 0" for name in ENTITIES)
    )
    return Database(schema, constraint, {name: 1 for name in ENTITIES})


def _managers() -> tuple[TransactionManager, TransactionManager]:
    return (
        TransactionManager(_database()),
        ReferenceTransactionManager(_database()),
    )


def _snapshot(tm: TransactionManager) -> dict:
    state: dict = {"versions": {}, "txns": {}}
    for entity in ENTITIES:
        state["versions"][entity] = [
            (v.entity, v.author, v.sequence, v.value)
            for v in tm.database.store.versions(entity)
        ]
    for txn in tm.children_of(tm.root):
        record = tm.record(txn)
        state["txns"][txn] = (
            tm.phase(txn),
            dict(record.assigned),
            dict(record.writes),
            record.abort_reason,
        )
    return state


def _lockstep(fast, slow, step):
    """Apply one closure to both managers; outcomes must agree."""
    results = []
    for tm in (fast, slow):
        try:
            results.append(("ok", step(tm)))
        except ProtocolError as error:
            results.append(("err", str(error)))
    assert results[0] == results[1], results
    assert _snapshot(fast) == _snapshot(slow)
    return results[0]


def _dsets_agree(tm: TransactionManager, txn: str) -> None:
    """The two D-set computations agree on identical manager state."""
    record = tm.record(txn)
    fast_sets = TransactionManager._compute_d_sets(tm, record)
    object_sets = compute_d_sets_object(tm, record)
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
                fast_sets = tm._compute_d_sets(tm.record(peer))
                object_sets = compute_d_sets_object(tm, tm.record(peer))
                assert fast_sets == object_sets, (peer, seed)
