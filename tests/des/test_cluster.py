"""End-to-end cluster simulations: every scenario, every oracle."""

from __future__ import annotations

import json

import pytest

from repro.des import (
    SCENARIOS,
    get_scenario,
    run_scenario,
)
from repro.des.report import _lag_percentiles
from repro.fuzz.oracles import ORACLES


def _failed_checks(report: dict) -> list[str]:
    return [
        name
        for section in report["epochs"]
        for name, verdict in section["oracles"].items()
        if not verdict["ok"]
    ] + [
        name
        for name, verdict in report["invariants"].items()
        if not verdict["ok"]
    ]


class TestScenarioLibrary:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes_all_checks(self, name):
        report = run_scenario(SCENARIOS[name])
        assert report["deadlock"] is None
        assert _failed_checks(report) == []
        assert report["ok"] is True
        assert report["metrics"]["commits_acked"] > 0

    def test_same_seed_same_report(self):
        scenario = get_scenario("primary_crash_promotion")
        first = json.dumps(run_scenario(scenario), sort_keys=True)
        second = json.dumps(run_scenario(scenario), sort_keys=True)
        assert first == second

    def test_different_seed_different_schedule(self):
        scenario = get_scenario("hot_key_storm")
        first = run_scenario(scenario)
        second = run_scenario(scenario.with_overrides(seed=12345))
        assert first["scenario_digest"] != second["scenario_digest"]
        assert second["ok"] is True


class TestPromotion:
    @pytest.fixture(scope="class")
    def crash_report(self):
        return run_scenario(get_scenario("primary_crash_promotion"))

    def test_two_epochs_ran(self, crash_report):
        assert len(crash_report["epochs"]) == 2
        assert crash_report["epochs"][0]["crashed"] is True
        assert crash_report["epochs"][1]["crashed"] is False

    def test_promotion_recorded(self, crash_report):
        promotion = crash_report["promotion"]
        assert promotion is not None
        assert promotion["winner"].startswith("follower")
        assert promotion["verified"] is True
        assert promotion["promoted_from_lsn"] > 0

    def test_acked_commits_survive_into_epoch2(self, crash_report):
        e1 = crash_report["epochs"][0]
        baseline = crash_report["promotion"]["baseline_committed"]
        assert e1["acked_committed"]
        assert set(e1["acked_committed"]) <= set(baseline)

    def test_epoch2_made_progress_on_the_survivor(self, crash_report):
        e2 = crash_report["epochs"][1]
        assert e2["acked_committed"]
        assert e2["oracles"]["acked_commits_survive_promotion"]["ok"]
        assert crash_report["invariants"][
            "cluster_promotion_continuity"
        ]["ok"]

    def test_partitioned_follower_lag_is_visible(self, crash_report):
        assert crash_report["metrics"]["lag_lsn_p95"] > 0

    def test_every_verdict_is_a_registry_row(self, crash_report):
        epochs = [set(e["oracles"]) for e in crash_report["epochs"]]
        assert epochs[0] - epochs[1] == {
            "write_multiplicity",
            "cross_shard_atomicity",
        }
        assert set.union(*epochs, crash_report["invariants"]) == set(ORACLES)

    def test_promoting_the_only_follower_skips_follower_reads(self):
        # The sweep's 3-node cell: epoch 2 has no follower left to read
        # from, yet its client scripts still carry follower_read ops.
        scenario = get_scenario("primary_crash_promotion")
        report = run_scenario(scenario.with_overrides(followers=1))
        assert report["promotion"]["winner"] == "follower0"
        assert len(report["epochs"]) == 2
        assert report["ok"] is True


class TestBoundedStaleness:
    def test_lag_budget_rejections_are_honest(self):
        report = run_scenario(get_scenario("follower_lag_divergence"))
        metrics = report["metrics"]
        assert metrics["follower_reads_ok"] > 0
        assert report["invariants"]["cluster_bounded_staleness"]["ok"]

    def test_busy_herd_exercises_backpressure(self):
        report = run_scenario(get_scenario("busy_retry_herd"))
        assert report["metrics"]["busy_replies"] > 0
        assert report["ok"] is True


class TestPumpCancelledMidShip:
    """A pump cancelled inside the ship transit has already advanced
    its hub cursor; it must drop the registration so the epoch-end
    ``catch_up`` re-registers from ``applied_lsn``."""

    def test_catch_up_does_not_hit_a_ship_gap(self):
        scenario = get_scenario("follower_lag_divergence")
        report = run_scenario(scenario.with_overrides(seed=3))
        assert report["ok"] is True

    def test_catch_up_leaves_every_follower_at_the_tip(self):
        report = run_scenario(get_scenario("abort_cascade"))
        replicas = report["epochs"][0]["replicas"]
        assert len({r["applied_lsn"] for r in replicas}) == 1, replicas


class TestPercentile:
    def test_nearest_rank(self):
        # The report's lag percentiles are ``Histogram``'s nearest
        # rank, always floats (integer LSN lags included).
        assert _lag_percentiles("lag", [1, 2, 3, 4]) == {
            "lag_p50": 2.0,
            "lag_p95": 4.0,
            "lag_p99": 4.0,
        }
        assert all(
            type(value) is float
            for value in _lag_percentiles("lag", [3, 1]).values()
        )
        assert _lag_percentiles("lag", []) == dict.fromkeys(
            ("lag_p50", "lag_p95", "lag_p99"), 0.0
        )


class TestHarnessLifetime:
    def test_rejected_scenario_acquires_nothing(
        self, scratch, no_unclosed_loops
    ):
        scenario = get_scenario("hot_key_storm").with_overrides(
            workload="bogus"
        )
        with no_unclosed_loops():
            with pytest.raises(ValueError, match="bogus"):
                run_scenario(scenario)
        assert list(scratch.iterdir()) == []

    def test_lost_reply_is_a_deadlock_report(
        self, scratch, lose_first_commit_reply
    ):
        report = run_scenario(get_scenario("abort_cascade"))
        assert lose_first_commit_reply
        assert report["deadlock"] and report["ok"] is False
        (epoch,) = report["epochs"]
        assert not epoch["oracles"]["no_deadlock"]["ok"]
        # Evidence was still collected, and everything was released.
        assert epoch["recovered_committed"] is not None
        assert len(epoch["replicas"]) == 2
        assert list(scratch.iterdir()) == []
