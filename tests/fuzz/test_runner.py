"""End-to-end runs: bit-for-bit determinism and a clean mini-corpus."""

from __future__ import annotations

import json

from repro.fuzz import (
    execute_plan,
    generate_plan,
    run_corpus,
    run_seed,
)


def _report_bytes(plan):
    return json.dumps(execute_plan(plan).report, sort_keys=True)


def test_same_plan_same_report_bytes():
    # Seeds picked to cover in-memory, durable, and strict variants.
    for seed in (1, 2, 3):
        plan = generate_plan(seed)
        assert _report_bytes(plan) == _report_bytes(plan), (
            f"seed {seed} is not deterministic"
        )


def test_crash_run_is_deterministic_and_collects_recovery():
    # Scan a few seeds for one whose armed crash point actually fires;
    # the sweep itself is deterministic, so the found seed is stable.
    crashed_seed = None
    for seed in range(1, 41):
        result = run_seed(seed, crash=True, durable=True)
        if result.report["crashed"]:
            crashed_seed = seed
            break
    assert crashed_seed is not None, "no seed in 1..40 fired its crash"
    first = run_seed(crashed_seed, crash=True, durable=True)
    second = run_seed(crashed_seed, crash=True, durable=True)
    assert json.dumps(first.report, sort_keys=True) == json.dumps(
        second.report, sort_keys=True
    )
    assert first.report["crash"]["point"]
    assert first.evidence.nodes[0].recovery is not None
    assert first.ok, f"crash-run oracles failed: {first.failed_oracles}"


def test_mini_corpus_passes_all_oracles():
    result = run_corpus(1, 25, out_dir=None, shrink=False)
    assert result.exit_code == 0, result.report()
    assert result.passed == 25
    assert not result.failures and not result.harness_errors


def test_report_shape():
    result = run_seed(4)
    report = result.report
    for key in (
        "fuzz_version",
        "seed",
        "plan_digest",
        "config",
        "counts",
        "oracles",
        "schedule",
        "virtual_duration",
        "ok",
    ):
        assert key in report
    assert report["seed"] == 4
    assert report["counts"]["requests"] > 0
    # Virtual timestamps only: the transcript must be monotone in t.
    times = [event["t"] for event in report["schedule"]]
    assert times == sorted(times)


def _first_seed(predicate, stop=120):
    for seed in range(stop):
        plan = generate_plan(seed)
        if predicate(plan):
            return seed, plan
    raise AssertionError("no matching seed in range")


class TestReplicatedRuns:
    def test_replicated_run_is_deterministic_and_clean(self):
        _seed, plan = _first_seed(
            lambda p: p.replicas and not p.crash_point
        )
        first = execute_plan(plan)
        second = execute_plan(plan)
        assert json.dumps(first.report, sort_keys=True) == json.dumps(
            second.report, sort_keys=True
        )
        assert first.ok, first.failed_oracles
        entries = first.evidence.replicas
        assert entries and len(entries) == plan.replicas
        for entry in entries:
            assert entry["error"] is None
            assert entry["verified"] is True

    def test_clean_replicated_run_converges(self):
        # After the partitions heal and the final catch-up, every
        # replica has applied the full durable history.
        _seed, plan = _first_seed(
            lambda p: p.replicas and not p.crash_point
        )
        result = execute_plan(plan)
        applied = {
            entry["applied_lsn"] for entry in result.evidence.replicas
        }
        assert len(applied) == 1
        assert result.evidence.follower_samples is not None

    def test_crashed_replicated_run_passes_promotion_oracle(self):
        _seed, plan = _first_seed(
            lambda p: p.replicas and p.crash_point
        )
        result = execute_plan(plan)
        assert result.ok, result.failed_oracles
        verdicts = result.report["oracles"]
        assert "acked_commits_survive_promotion" in verdicts
        assert "prefix_consistency" in verdicts

    def test_partition_can_produce_indeterminate_commits(self):
        # Somewhere in the seed stream a partition overlaps a sync
        # commit long enough to blow its request deadline; the client
        # is told "indeterminate" and the oracles accept the commit
        # in the recovered history without an ack.
        for seed in range(200):
            plan = generate_plan(seed)
            if not plan.replicas:
                continue
            result = execute_plan(plan)
            assert result.ok, (seed, result.failed_oracles)
            if result.evidence.indeterminate_committed:
                report = result.report
                assert report["counts"]["commits_indeterminate"] > 0
                return
        raise AssertionError(
            "no seed in 0..199 produced an indeterminate commit"
        )


class TestShardedRuns:
    def test_sharded_run_is_deterministic(self):
        plan = generate_plan(2, shards=4, durable=True, crash=False)
        assert plan.shards == 4
        assert _report_bytes(plan) == _report_bytes(plan)

    def test_clean_cross_shard_run_passes_all_oracles(self):
        # Seed 2 at 4 shards commits transactions spanning shards 1
        # and 3 (the fuzz entities hash x->3, y->1, z->3).
        result = execute_plan(
            generate_plan(2, shards=4, durable=True, crash=False)
        )
        assert result.ok, result.failed_oracles
        report = result.report
        assert report["config"]["shards"] == 4
        assert report["acked_committed"]
        assert set(report["shard_recovered_committed"]) == {
            "0", "1", "2", "3",
        }
        verdict = report["oracles"]["cross_shard_atomicity"]
        assert verdict["ok"]
        assert not any(
            "no cross-shard" in detail for detail in verdict["details"]
        ), "expected the atomicity oracle to engage, not skip"
        # Cross-shard branch names were captured for the oracles.
        assert result.evidence.branch_map

    def test_crashed_sharded_run_recovers_and_verifies(self):
        result = execute_plan(
            generate_plan(1, shards=4, durable=True, crash=True)
        )
        report = result.report
        assert report["crashed"]
        assert result.ok, result.failed_oracles
        nodes = result.evidence.nodes
        assert [node.index for node in nodes] == [0, 1, 2, 3]
        assert all(node.recovery.verified for node in nodes)

    def test_crash_mid_2pc_resolves_in_doubt_branches(self):
        # Seed 14's crash fires between PREPARE and the coordinator's
        # decision record: recovery must resolve every prepared branch
        # by presumed abort, and the atomicity oracle must agree the
        # outcome is all-or-nothing.
        result = execute_plan(
            generate_plan(14, shards=4, durable=True, crash=True)
        )
        report = result.report
        assert report["crashed"]
        assert result.ok, result.failed_oracles
        resolutions = report["shard_resolutions"]
        assert resolutions, "expected in-doubt 2PC branches"
        gids = {entry["gid"] for entry in resolutions}
        for gid in gids:
            decisions = {
                entry["decision"]
                for entry in resolutions
                if entry["gid"] == gid
            }
            assert len(decisions) == 1, (
                f"split decision for {gid}: {resolutions}"
            )

    def test_in_memory_sharded_run_verifies_live_managers(self):
        result = execute_plan(generate_plan(1, shards=4, durable=False))
        assert result.ok, result.failed_oracles
        nodes = result.evidence.nodes
        assert len(nodes) == 4
        assert all(node.manager is not None for node in nodes)
        assert result.report["oracles"]["protocol_verify"]["ok"]

    def test_mini_sharded_corpus_is_clean(self):
        result = run_corpus(
            1,
            12,
            out_dir=None,
            shrink=False,
            plan_overrides={"shards": 4},
        )
        assert result.exit_code == 0, result.report()
        assert result.passed == 12
