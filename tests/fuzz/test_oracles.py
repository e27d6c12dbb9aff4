"""Oracles must actually fire: feed them synthetic bad evidence."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core import Domain, Predicate, Schema, Spec
from repro.durability.records import OP_WRITE
from repro.fuzz import generate_plan, run_oracles
from repro.fuzz.harness import History
from repro.fuzz.oracles import CLUSTER, ORACLES
from repro.fuzz.runner import Evidence, NodeEvidence
from repro.protocol.scheduler import Outcome, TransactionManager, TxnPhase
from repro.storage import Database


def _verdict(results, name):
    for result in results:
        if result.name == name:
            return result
    raise AssertionError(f"oracle {name} never ran")


def _evidence(records=None, recovery=None, **kw) -> Evidence:
    """Hand-built evidence; ``records``/``recovery`` make one node 0."""
    if records is not None or recovery is not None:
        kw["nodes"] = [NodeEvidence(0, records, recovery)]
    base = dict(
        plan=generate_plan(1, durable=False),
        events=[],
        names={},
        acked_committed=[],
        requests={},
    )
    base.update(kw)
    return Evidence(**base)


def _recovery(committed, verified=True, violations=()):
    return SimpleNamespace(
        committed=list(committed),
        verified=verified,
        violations=list(violations),
    )


def _wal_write(lsn, txn, entity):
    return SimpleNamespace(
        lsn=lsn, op=OP_WRITE, txn=txn, data={"entity": entity}
    )


def test_double_terminal_reply_fails():
    reply = {
        "kind": "reply",
        "client": 1,
        "rid": 1,
        "ok": True,
        "code": None,
    }
    evidence = _evidence(events=[dict(reply), dict(reply)])
    verdict = _verdict(run_oracles(evidence), "replies_complete")
    assert not verdict.ok
    assert "2 terminal replies" in verdict.details[0]


def test_lost_response_fails_outside_crash():
    entry = {
        "client": 1,
        "rid": 1,
        "op": "commit",
        "txn": "t.1",
        "entity": None,
        "status": "pending",
        "outcome": None,
    }
    evidence = _evidence(requests={(1, 1): entry})
    assert not _verdict(run_oracles(evidence), "replies_complete").ok
    # The same pending request is tolerated when the run crashed.
    crashed = _evidence(requests={(1, 1): dict(entry)}, crashed=True)
    assert _verdict(run_oracles(crashed), "replies_complete").ok


def test_unacked_wal_write_fails_multiplicity():
    evidence = _evidence(
        records=[_wal_write(1, "t.1", "x")],
        recovery=_recovery([]),
    )
    verdict = _verdict(run_oracles(evidence), "write_multiplicity")
    assert not verdict.ok
    assert "1 WAL writes for 0 acked" in verdict.details[0]


def test_duplicated_wal_write_fails_multiplicity():
    entry = {
        "client": 1,
        "rid": 3,
        "op": "write",
        "txn": "t.1",
        "entity": "x",
        "status": "ok",
        "outcome": None,
    }
    evidence = _evidence(
        requests={(1, 3): entry},
        records=[_wal_write(1, "t.1", "x"), _wal_write(2, "t.1", "x")],
        recovery=_recovery([]),
    )
    assert not _verdict(run_oracles(evidence), "write_multiplicity").ok


def test_acked_commit_missing_from_recovery_fails_prefix():
    evidence = _evidence(
        acked_committed=["t.1"],
        recovery=_recovery(["t.2"]),
    )
    verdict = _verdict(run_oracles(evidence), "committed_prefix")
    assert not verdict.ok
    assert "t.1" in verdict.details[0]
    # A phantom recovered commit is also a violation on a clean run.
    assert any("t.2" in detail for detail in verdict.details)


def test_acked_order_must_be_subsequence():
    evidence = _evidence(
        acked_committed=["t.2", "t.1"],
        recovery=_recovery(["t.1", "t.2"]),
    )
    assert not _verdict(run_oracles(evidence), "committed_prefix").ok


def test_recovery_violations_fail():
    evidence = _evidence(
        recovery=_recovery([], verified=False, violations=["boom"]),
    )
    # The synthetic plan is in-memory; force the durable branch.
    evidence.plan.durable = True
    verdict = _verdict(run_oracles(evidence), "recovery_verified")
    assert not verdict.ok
    assert verdict.details == ["boom"]


def test_clean_synthetic_evidence_passes():
    results = run_oracles(_evidence())
    assert all(result.ok for result in results)


def _replica(index, applied, committed, verified=True, error=None):
    return {
        "replica": index,
        "applied_lsn": applied,
        "committed": list(committed),
        "verified": verified,
        "violations": [],
        "error": error,
    }


def _sample(replica, lsn, view, t=0.0):
    return {"t": t, "replica": replica, "applied_lsn": lsn, "view": view}


def test_acked_commit_missing_from_winner_fails_promotion():
    plan = generate_plan(1, durable=True)
    plan.replicas, plan.sync_replicas = 2, 1
    evidence = _evidence(
        plan=plan,
        acked_committed=["t.1", "t.2"],
        replicas=[
            _replica(0, 5, ["t.1"]),
            _replica(1, 9, ["t.1"]),  # winner, but t.2 is gone
        ],
    )
    verdict = _verdict(
        run_oracles(evidence), "acked_commits_survive_promotion"
    )
    assert not verdict.ok
    assert "t.2" in verdict.details[0]


def test_unverified_winner_fails_promotion():
    plan = generate_plan(1, durable=True)
    plan.replicas, plan.sync_replicas = 1, 1
    evidence = _evidence(
        plan=plan,
        replicas=[_replica(0, 9, [], verified=False)],
    )
    verdict = _verdict(
        run_oracles(evidence), "acked_commits_survive_promotion"
    )
    assert not verdict.ok
    assert "recover --verify" in verdict.details[0]


def test_promotion_oracle_skips_async_and_indeterminate():
    plan = generate_plan(1, durable=True)
    plan.replicas, plan.sync_replicas = 1, 0  # async shipping
    evidence = _evidence(plan=plan, replicas=[_replica(0, 3, [])])
    verdict = _verdict(
        run_oracles(evidence), "acked_commits_survive_promotion"
    )
    assert verdict.ok and verdict.skipped
    # Indeterminate commits carry no survival promise.
    plan.sync_replicas = 1
    evidence = _evidence(
        plan=plan,
        indeterminate_committed=["t.9"],
        replicas=[_replica(0, 3, [])],
    )
    verdict = _verdict(
        run_oracles(evidence), "acked_commits_survive_promotion"
    )
    assert verdict.ok


def test_backwards_applied_lsn_fails_prefix_consistency():
    plan = generate_plan(1, durable=True)
    plan.replicas, plan.sync_replicas = 1, 1
    evidence = _evidence(
        plan=plan,
        replicas=[_replica(0, 4, [])],
        follower_samples=[
            _sample(0, 4, {"x": 1}),
            _sample(0, 2, {"x": 1}, t=1.0),
        ],
    )
    verdict = _verdict(run_oracles(evidence), "prefix_consistency")
    assert not verdict.ok
    assert "backwards" in verdict.details[0]


def test_diverging_views_at_same_lsn_fail_prefix_consistency():
    plan = generate_plan(1, durable=True)
    plan.replicas, plan.sync_replicas = 2, 1
    evidence = _evidence(
        plan=plan,
        replicas=[_replica(0, 4, []), _replica(1, 4, [])],
        follower_samples=[
            _sample(0, 4, {"x": 1}),
            _sample(1, 4, {"x": 2}, t=1.0),
        ],
    )
    verdict = _verdict(run_oracles(evidence), "prefix_consistency")
    assert not verdict.ok
    assert "disagree" in verdict.details[0]


def test_non_nesting_commit_orders_fail_prefix_consistency():
    plan = generate_plan(1, durable=True)
    plan.replicas, plan.sync_replicas = 2, 1
    evidence = _evidence(
        plan=plan,
        replicas=[
            _replica(0, 4, ["t.1"]),
            _replica(1, 9, ["t.2", "t.1"]),
        ],
    )
    verdict = _verdict(run_oracles(evidence), "prefix_consistency")
    assert not verdict.ok
    assert "prefix" in verdict.details[0]


def test_indeterminate_commit_accepted_without_ack():
    # committed_prefix must not flag a recovered commit whose reply
    # was "durable locally, ack unknown".
    plan = generate_plan(1, durable=True)
    evidence = _evidence(
        plan=plan,
        acked_committed=["t.1"],
        indeterminate_committed=["t.2"],
        recovery=_recovery(["t.1", "t.2"]),
    )
    verdict = _verdict(run_oracles(evidence), "committed_prefix")
    assert verdict.ok, verdict.details


def test_promotion_baseline_counts_as_committed_without_an_ack():
    # A promoted primary's recovered history was committed in an
    # earlier epoch and never acked in this one.
    evidence = _evidence(
        acked_committed=["t.2"],
        recovery=_recovery(["t.1", "t.2"]),
        baseline_committed=["t.1"],
    )
    assert _verdict(run_oracles(evidence), "committed_prefix").ok
    evidence.baseline_committed = None
    assert not _verdict(run_oracles(evidence), "committed_prefix").ok


def test_rows_apply_by_scope_and_evidence():
    fresh = {result.name for result in run_oracles(_evidence())}
    promoted = {
        result.name
        for result in run_oracles(_evidence(baseline_committed=[]))
    }
    assert fresh - promoted == {"write_multiplicity", "cross_shard_atomicity"}
    cluster = [n for n, row in ORACLES.items() if row.scope == CLUSTER]
    assert fresh | set(cluster) == set(ORACLES)
    assert not fresh & set(cluster)
    epoch = _evidence(recovery=_recovery([]))
    # Cluster rows judge a run over a network; a fuzz run has none.
    assert run_oracles(History([epoch]), scope=CLUSTER) == []
    judged = run_oracles(History([epoch], network=object()), scope=CLUSTER)
    assert [result.name for result in judged] == cluster


def _sharded_plan(**kw):
    kw.setdefault("durable", True)
    kw.setdefault("crash", False)
    return generate_plan(1, shards=4, **kw)


def _shard_nodes(shards):
    """``{shard: recovered commit order}`` → per-node evidence."""
    return [
        NodeEvidence(index, recovery=_recovery(committed))
        for index, committed in sorted(shards.items())
    ]


def test_split_brain_fails_cross_shard_atomicity():
    # gid sh1.2 spans shards 1 and 3; only shard 1 committed it.
    evidence = _evidence(
        plan=_sharded_plan(),
        acked_committed=["sh1.2"],
        branch_map={"sh1.2": "sh1.2", "sh3.5": "sh1.2"},
        nodes=_shard_nodes({1: ["sh1.2"], 3: []}),
    )
    verdict = _verdict(run_oracles(evidence), "cross_shard_atomicity")
    assert not verdict.ok
    assert "split-brain" in verdict.details[0]


def test_acked_cross_commit_lost_everywhere_fails_atomicity():
    evidence = _evidence(
        plan=_sharded_plan(),
        acked_committed=["sh1.2"],
        branch_map={"sh1.2": "sh1.2", "sh3.5": "sh1.2"},
        nodes=_shard_nodes({1: [], 3: []}),
    )
    verdict = _verdict(run_oracles(evidence), "cross_shard_atomicity")
    assert not verdict.ok
    assert "not committed" in verdict.details[0]


def test_unacked_cross_commit_fails_atomicity_on_clean_run():
    evidence = _evidence(
        plan=_sharded_plan(),
        acked_committed=[],
        branch_map={"sh1.2": "sh1.2", "sh3.5": "sh1.2"},
        nodes=_shard_nodes({1: ["sh1.2"], 3: ["sh3.5"]}),
    )
    verdict = _verdict(run_oracles(evidence), "cross_shard_atomicity")
    assert not verdict.ok
    assert "without an acknowledged commit" in verdict.details[0]
    # The same fates are legitimate when the commit was in flight at
    # a crash.
    crashed = _evidence(
        plan=_sharded_plan(),
        acked_committed=[],
        branch_map={"sh1.2": "sh1.2", "sh3.5": "sh1.2"},
        nodes=_shard_nodes({1: ["sh1.2"], 3: ["sh3.5"]}),
        crashed=True,
        requests={
            (1, 9): {
                "client": 1,
                "rid": 9,
                "op": "commit",
                "txn": "sh1.2",
                "entity": None,
                "status": "pending",
                "outcome": None,
            }
        },
    )
    assert _verdict(run_oracles(crashed), "cross_shard_atomicity").ok


def test_sharded_prefix_is_membership_only_for_cross_branches():
    # Shard 3's recovered order has the cross-shard branch sh3.5
    # *after* the later single-shard commit sh3.9 — legitimate,
    # because 2PC fan-out order is schedule-dependent.  The
    # single-shard commit still has to respect ack order.
    evidence = _evidence(
        plan=_sharded_plan(),
        acked_committed=["sh1.2", "sh3.9"],
        branch_map={"sh1.2": "sh1.2", "sh3.5": "sh1.2"},
        nodes=_shard_nodes({1: ["sh1.2"], 3: ["sh3.9", "sh3.5"]}),
    )
    assert _verdict(run_oracles(evidence), "committed_prefix").ok
    # But a cross-shard branch missing entirely still fails.
    missing = _evidence(
        plan=_sharded_plan(),
        acked_committed=["sh1.2", "sh3.9"],
        branch_map={"sh1.2": "sh1.2", "sh3.5": "sh1.2"},
        nodes=_shard_nodes({1: ["sh1.2"], 3: ["sh3.9"]}),
    )
    verdict = _verdict(run_oracles(missing), "committed_prefix")
    assert not verdict.ok
    assert "sh3.5" in verdict.details[0]


def _drained_manager(root, committed, aborted=()):
    """The slice of a drained manager ``protocol_verify`` reads."""
    phases = {name: TxnPhase.COMMITTED for name in committed}
    phases.update({name: TxnPhase.ABORTED for name in aborted})
    root_record = SimpleNamespace(
        name=root, children=sorted(phases), phase=TxnPhase.VALIDATED
    )
    return SimpleNamespace(
        root=root,
        iter_records=lambda: iter([root_record]),
        verify_parent_based=lambda _root: [],
        verify_correctness=lambda _root: [],
        children_of=lambda _root: sorted(phases),
        record=lambda name: SimpleNamespace(
            terminated=True, phase=phases[name]
        ),
        state=SimpleNamespace(stale_indexes=lambda: []),
    )


@pytest.mark.parametrize(
    "acked, recovered, live, expect_ok",
    [
        ([1, 2], [1, 2, 3], [1, 2], {"protocol_verify"}),
        ([1, 2], [1, 2], [1, 2], {"committed_prefix", "protocol_verify"}),
        ([2, 1], [1, 2], [1, 2], {"protocol_verify"}),
        ([1, 2], [1], [1], set()),
    ],
)
def test_one_node_sharded_shape_matches_unsharded(
    acked, recovered, live, expect_ok
):
    # The case the old ``_sharded`` fork hid: one node whose branch
    # names are rooted at ``sh0`` is the same history as an unsharded
    # run rooted at ``t`` — same verdicts, same details.
    def verdicts(root):
        def names(numbers):
            return [f"{root}.{n}" for n in numbers]

        evidence = _evidence(
            acked_committed=names(acked),
            nodes=[
                NodeEvidence(
                    0,
                    recovery=_recovery(names(recovered)),
                    manager=_drained_manager(
                        root, names(live), aborted=names([9])
                    ),
                )
            ],
        )
        return [
            (
                result.name,
                result.ok,
                [d.replace(f"{root}.", "R.") for d in result.details],
            )
            for result in run_oracles(
                evidence, names=["committed_prefix", "protocol_verify"]
            )
        ]

    unsharded = verdicts("t")
    assert unsharded == verdicts("sh0")
    assert {name for name, ok, _ in unsharded if ok} == expect_ok


def _committed_nested_parent():
    """A committed parent whose committed children are ordered
    ``first < second``; ``first`` read x, ``second`` wrote it."""
    schema = Schema.of("x", domain=Domain.interval(0, 100))
    tm = TransactionManager(
        Database(schema, Predicate.parse("x >= 0"), {"x": 1})
    )
    parent = tm.define(tm.root, Spec.trivial(), {"x"})
    first = tm.define(
        parent, Spec(Predicate.parse("x >= 0"), Predicate.true()), set()
    )
    second = tm.define(parent, Spec.trivial(), {"x"}, predecessors=[first])
    for name in (parent, first, second):
        assert tm.validate(name).outcome is Outcome.OK
    assert tm.read(first, "x").value == 1
    assert tm.commit(first).outcome is Outcome.OK
    assert tm.write(second, "x", 5).outcome is Outcome.OK
    assert tm.commit(second).outcome is Outcome.OK
    assert tm.commit(parent).outcome is Outcome.OK
    return tm, parent, first, second


def test_protocol_verify_judges_nested_parents():
    # Lemma 4 below the root: a committed child that read its
    # P-successor sibling's version is not parent-based, even though
    # every root-level child is.
    tm, parent, first, second = _committed_nested_parent()

    def verdict():
        evidence = _evidence(
            acked_committed=[parent], nodes=[NodeEvidence(0, manager=tm)]
        )
        return _verdict(
            run_oracles(evidence, names=["protocol_verify"]),
            "protocol_verify",
        )

    assert verdict().ok, verdict().details
    tm.record(first).assigned["x"] = tm.record(second).writes["x"]
    tampered = verdict()
    assert not tampered.ok
    assert any(
        f"{first} read x from successor {second}" in detail
        for detail in tampered.details
    )


def test_protocol_verify_compares_kept_indexes_with_a_rebuild():
    # The state keeps each parent's index current inside ``apply``; an
    # upkeep slip must fail the run even when every Lemma-4 verdict
    # holds.
    tm, parent, first, second = _committed_nested_parent()
    evidence = _evidence(
        acked_committed=[parent], nodes=[NodeEvidence(0, manager=tm)]
    )

    def verdict():
        return _verdict(
            run_oracles(evidence, names=["protocol_verify"]),
            "protocol_verify",
        )

    assert verdict().ok, verdict().details
    tm.state.index(parent).kill(first)  # an abort that never happened
    assert not verdict().ok
    assert verdict().details == [
        f"{parent}'s kept ParentIndex differs from a rebuild"
    ]
