"""Tests for the wait-die / wound-wait 2PL variants."""

from __future__ import annotations

import pytest

from repro.baselines import AccessStatus, StrictTwoPhaseLocking
from repro.core import Domain, Predicate, Schema
from repro.storage import Database


@pytest.fixture
def db():
    schema = Schema.of("x", "y", domain=Domain.interval(0, 1000))
    return Database(schema, Predicate.true(), {"x": 1, "y": 2})


def _scheduler(db, policy):
    cc = StrictTwoPhaseLocking(db, deadlock_policy=policy)
    cc.begin("old")  # smaller sequence = older
    cc.begin("young")
    return cc


class TestPolicyValidation:
    def test_unknown_policy_rejected(self, db):
        with pytest.raises(ValueError):
            StrictTwoPhaseLocking(db, deadlock_policy="hope")

    def test_name_reflects_policy(self, db):
        assert (
            StrictTwoPhaseLocking(db, deadlock_policy="wait-die").name
            == "s2pl-wait-die"
        )


class TestWaitDie:
    def test_older_requester_waits(self, db):
        cc = _scheduler(db, "wait-die")
        cc.write("young", "x", 5)
        result = cc.read("old", "x")
        assert result.status is AccessStatus.BLOCKED
        assert cc.preventions == 0

    def test_younger_requester_dies(self, db):
        cc = _scheduler(db, "wait-die")
        cc.write("old", "x", 5)
        result = cc.read("young", "x")
        assert result.status is AccessStatus.ABORTED
        assert cc.preventions == 1

    def test_no_deadlock_possible(self, db):
        # The classic crossing pattern terminates without detection.
        cc = _scheduler(db, "wait-die")
        cc.write("old", "x", 1)
        cc.write("young", "y", 2)
        first = cc.read("old", "y")  # older waits on younger: allowed
        assert first.status is AccessStatus.BLOCKED
        second = cc.read("young", "x")  # younger requests older's lock
        assert second.status is AccessStatus.ABORTED
        # young's death released y; old's queued read is grantable.
        assert "old" in second.unblocked

    def test_waiting_older_eventually_runs(self, db):
        cc = _scheduler(db, "wait-die")
        cc.write("young", "x", 5)
        cc.read("old", "x")
        result = cc.commit("young")
        assert "old" in result.unblocked
        assert cc.read("old", "x").status is AccessStatus.OK


class TestWoundWait:
    def test_older_wounds_younger_holder(self, db):
        cc = _scheduler(db, "wound-wait")
        cc.write("young", "x", 5)
        result = cc.read("old", "x")
        # The younger holder is wounded; the older's request is granted
        # via the drained queue.
        assert "young" in result.aborted
        assert cc.preventions == 1
        assert "old" in result.unblocked
        assert cc.read("old", "x").status is AccessStatus.OK

    def test_younger_requester_waits(self, db):
        cc = _scheduler(db, "wound-wait")
        cc.write("old", "x", 5)
        result = cc.read("young", "x")
        assert result.status is AccessStatus.BLOCKED
        assert cc.preventions == 0

    def test_wounded_work_is_lost(self, db):
        cc = _scheduler(db, "wound-wait")
        cc.write("young", "x", 5)
        cc.read("old", "x")
        # young's version was expunged with the wound.
        assert db.store.values_of("x") == {1}


class TestSimulationIntegration:
    def test_both_policies_complete_a_workload(self, db):
        from repro.sim import SimulationEngine
        from repro.workload import oltp_workload

        workload = oltp_workload(num_transactions=12, seed=9)
        for policy in ("wait-die", "wound-wait"):
            database = workload.fresh_database()
            engine = SimulationEngine(
                StrictTwoPhaseLocking(
                    database, deadlock_policy=policy
                ),
                workload,
                seed=1,
            )
            metrics = engine.run()
            assert metrics.committed_count == 12, policy
