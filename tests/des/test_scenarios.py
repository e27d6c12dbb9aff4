"""Scenario library, workload expansion, and sweep-grid plumbing."""

from __future__ import annotations

import pytest

from repro.des import (
    SCENARIOS,
    WORKLOAD_KINDS,
    Scenario,
    cell_scenario,
    cluster_spec,
    expand_clients,
    expand_partitions,
    get_scenario,
    run_scenario,
    split_nodes,
)
from repro.workload import Txn, predicate_text
from repro.workload.families import ENTITIES, FAMILIES


def _clients(scenario, phase="e1"):
    return expand_clients(scenario, phase, scenario.txns_per_client)


class TestScenario:
    def test_round_trip(self):
        for scenario in SCENARIOS.values():
            clone = Scenario.from_dict(scenario.to_dict())
            assert clone == scenario

    def test_digest_is_stable_and_content_addressed(self):
        base = get_scenario("hot_key_storm")
        assert base.digest() == base.digest()
        assert base.digest() != base.with_overrides(seed=999).digest()

    def test_unsupported_version_rejected(self):
        data = get_scenario("hot_key_storm").to_dict()
        data["version"] = 999
        with pytest.raises(ValueError, match="version"):
            Scenario.from_dict(data)

    def test_unknown_scenario_lists_known(self):
        with pytest.raises(KeyError, match="hot_key_storm"):
            get_scenario("nope")

    def test_library_names_match_keys(self):
        assert all(
            scenario.name == name
            for name, scenario in SCENARIOS.items()
        )


class TestWorkload:
    def test_expansion_is_deterministic(self):
        scenario = get_scenario("primary_crash_promotion")
        first = _clients(scenario, phase="e1")
        second = _clients(scenario, phase="e1")
        assert [c.to_dict() for c in first] == [
            c.to_dict() for c in second
        ]

    def test_unknown_workload_rejected(self):
        scenario = get_scenario("hot_key_storm").with_overrides(
            workload="bogus"
        )
        with pytest.raises(ValueError, match="bogus"):
            _clients(scenario)

    def test_epoch2_labels_are_prefixed(self):
        scenario = get_scenario("primary_crash_promotion")
        labels = {
            txn.label
            for client in _clients(scenario, phase="e2")
            for txn in client.txns
        }
        assert labels
        assert all(label.startswith("e2") for label in labels)
        e1_labels = {
            txn.label
            for client in _clients(scenario, phase="e1")
            for txn in client.txns
        }
        assert not labels & e1_labels

    def test_follower_reads_come_before_the_terminal(self):
        scenario = get_scenario("hot_key_storm")
        seen = 0
        for client in _clients(scenario):
            for txn in client.txns:
                for index, op in enumerate(txn.ops):
                    if op[0] == "follower_read":
                        seen += 1
                        assert index < len(txn.ops) - 1
                        assert txn.ops[-1][0] in ("commit", "abort")
        assert seen > 0

    def test_partition_expansion_deterministic(self):
        scenario = get_scenario("hot_key_storm").with_overrides(
            partition_rate=0.9, followers=3
        )
        assert expand_partitions(scenario) == expand_partitions(scenario)
        assert expand_partitions(scenario)  # 0.9 over 3 draws: windows

    def test_build_plan_carries_scenario_config(self):
        scenario = get_scenario("follower_lag_divergence")
        plan = cluster_spec(scenario).plan
        assert plan.seed == scenario.seed
        assert plan.replicas == scenario.followers
        assert plan.sync_replicas == scenario.sync_replicas
        assert plan.durable is True


class TestSweepGrid:
    def test_split_nodes(self):
        assert split_nodes(3) == (1, 1)
        assert split_nodes(6) == (2, 3)
        assert split_nodes(9) == (3, 5)
        with pytest.raises(ValueError):
            split_nodes(2)

    def test_cell_scenario_overrides_topology(self):
        base = get_scenario("hot_key_storm")
        cell = cell_scenario(base, nodes=6, partition_rate=0.3)
        assert cell.followers == 2
        assert cell.clients == 3
        assert cell.partition_rate == 0.3
        assert cell.name == "hot_key_storm@n6+pr0.3"
        assert cell.digest() != base.digest()


class TestFamilies:
    def test_kinds_are_the_family_table(self):
        assert WORKLOAD_KINDS == tuple(FAMILIES)

    def test_a_new_family_is_one_table_row(self, monkeypatch):
        def toy(rng, label, **_):
            entity = rng.choice(ENTITIES)
            return Txn(
                label=label,
                updates=[entity],
                input=predicate_text(()),
                output=predicate_text([entity]),
                ops=[["write", entity, rng.randint(0, 9)], ["commit"]],
            )

        monkeypatch.setitem(FAMILIES, "toy", toy)
        report = run_scenario(Scenario(name="toy", workload="toy"))
        assert report["ok"] is True
        assert report["metrics"]["commits_acked"] > 0
