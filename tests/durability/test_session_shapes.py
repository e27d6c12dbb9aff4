"""WAL recovery rebuilds what the live manager held, shape by shape.

One test per protocol shape whose derived decisions the WAL must carry
(Figure-4 re-evaluation aborts, abort cascades, relative-commit undo)
plus seeded random sessions: every session runs to termination, goes
through the on-disk JSON records and ``recover(verify=True)``, and the
recovered manager must hold the same records, versions and views.
Along the way every session is shadowed: after each step, the first
checkpoint plus every record so far, applied to a second state, must
dump equal to the live state (:mod:`tests.durability.shadow`).
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability import DurableTransactionManager, recover
from repro.durability.records import OP_ABORT, OP_UNDO_COMMIT
from repro.durability.wal import scan_wal
from repro.protocol.scheduler import Outcome, TxnPhase

from .conftest import make_database, spec
from .shadow import attach_shadow

ENTITIES = ("x", "y", "z")


def _snapshot(manager) -> dict:
    store = manager.database.store
    return {
        "versions": {
            entity: [
                (v.value, v.author, v.sequence)
                for v in store.versions(entity)
            ]
            for entity in ENTITIES
        },
        "records": {
            record.name: (
                record.phase,
                record.parent,
                tuple(record.children),
                dict(record.assigned),
                dict(record.writes),
                sorted(record.read_items),
            )
            for record in manager.iter_records()
        },
        "views": {
            record.name: manager.view(record.name)
            for record in manager.iter_records()
            if record.phase is not TxnPhase.ABORTED
        },
    }


def _assert_recovery_rebuilds(manager, wal_dir):
    """Every transaction has terminated, so recovery undoes nothing."""
    manager.flush()
    result = recover(wal_dir, verify=True)
    assert result.verified, result.violations
    assert not result.undo.all_dead
    assert _snapshot(result.manager) == _snapshot(manager)
    return result


def _ops(wal_dir, op):
    return [r for r in scan_wal(wal_dir).records if r.op == op]


class TestSessionShapes:
    def test_reeval_abort_is_rebuilt_from_its_record(
        self, wal_dir, fresh_manager
    ):
        tm = fresh_manager
        pred = tm.define(tm.root, spec(), ["x"])
        succ = tm.define(
            tm.root, spec("x >= 0"), [], predecessors=[pred]
        )
        tm.validate(pred)
        tm.validate(succ)
        tm.read(succ, "x")  # stale read
        assert succ in tm.write(pred, "x", 42).aborted  # Figure 4
        tm.commit(pred)
        result = _assert_recovery_rebuilds(tm, wal_dir)
        # The derived abort is a logged fact, not re-derived.
        assert [r.data["aborted"] for r in _ops(wal_dir, OP_ABORT)] == [
            [succ]
        ]
        assert result.manager.phase(succ) is TxnPhase.ABORTED
        assert result.manager.view(tm.root)["x"] == 42

    def test_abort_cascade_is_rebuilt(self, wal_dir, fresh_manager):
        tm = fresh_manager
        writer = tm.define(tm.root, spec(), ["y"])
        reader = tm.define(
            tm.root, spec("y >= 0"), ["x"], predecessors=[writer]
        )
        tm.validate(writer)
        tm.write(writer, "y", 77)
        tm.validate(reader)
        assert tm.read(reader, "y").value == 77
        tm.write(reader, "x", 5)
        assert set(tm.abort(writer)) == {writer, reader}
        result = _assert_recovery_rebuilds(tm, wal_dir)
        assert result.manager.view(tm.root) == {"x": 5, "y": 5, "z": 5}
        assert not result.committed

    def test_undo_relative_commit_then_recommit(
        self, wal_dir, fresh_manager
    ):
        tm = fresh_manager
        txn = tm.define(tm.root, spec(), ["x"])
        tm.validate(txn)
        tm.write(txn, "x", 99)
        tm.commit(txn)
        assert tm.undo_relative_commit(txn).outcome is Outcome.OK
        assert tm.view(tm.root)["x"] == 5  # release withdrawn
        assert tm.commit(txn).outcome is Outcome.OK
        result = _assert_recovery_rebuilds(tm, wal_dir)
        assert [r.txn for r in _ops(wal_dir, OP_UNDO_COMMIT)] == [txn]
        assert result.committed == [txn]
        assert result.manager.view(tm.root)["x"] == 99

    def test_undone_commit_left_in_flight_is_not_durable(
        self, wal_dir, fresh_manager
    ):
        tm = fresh_manager
        txn = tm.define(tm.root, spec(), ["x"])
        tm.validate(txn)
        tm.write(txn, "x", 99)
        tm.commit(txn)
        tm.undo_relative_commit(txn)
        tm.flush()
        result = recover(wal_dir, verify=True)
        assert result.verified, result.violations
        assert result.undo.aborted_in_flight == [txn]
        assert result.manager.phase(txn) is TxnPhase.ABORTED
        assert result.manager.view(tm.root)["x"] == 5


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_randomized_sessions_recover_identically(seed):
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory(prefix="repro-shapes-") as tmp:
        wal_dir = Path(tmp) / "wal"
        tm, _ = DurableTransactionManager.open(wal_dir, make_database)
        shadow = attach_shadow(tm, wal_dir)
        live = []
        for __ in range(12):
            reads = rng.sample(ENTITIES, rng.randint(1, 2))
            writes = set(rng.sample(ENTITIES, rng.randint(0, 2)))
            predecessors = [
                p
                for p in ([rng.choice(live)] if live else [])
                if rng.random() < 0.4
                and tm.phase(p) is not TxnPhase.ABORTED
            ]
            txn = tm.define(
                tm.root,
                spec(" & ".join(f"{e} >= 0" for e in reads)),
                writes,
                predecessors=predecessors,
            )
            if tm.validate(txn).outcome is not Outcome.OK:
                continue
            live.append(txn)
            for entity in reads:
                if tm.phase(txn) is TxnPhase.VALIDATED:
                    tm.read(txn, entity)
            for entity in sorted(writes):
                if tm.phase(txn) is TxnPhase.VALIDATED:
                    tm.write(txn, entity, rng.randint(0, 100))
            if rng.random() < 0.5 and tm.phase(txn) is TxnPhase.VALIDATED:
                tm.commit(txn)
        for txn in live:  # definition order: predecessors first
            if tm.phase(txn) is TxnPhase.VALIDATED:
                if tm.commit(txn).outcome is not Outcome.OK:
                    tm.abort(txn)
        assert shadow.steps > 24  # at least define + validate each
        _assert_recovery_rebuilds(tm, wal_dir)
        tm.close()
