"""Plan generation: deterministic, serializable, overridable."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fuzz import FuzzPlan, execute_plan, generate_plan
from repro.fuzz.plan import PlanError


def test_same_seed_same_plan():
    a = generate_plan(42)
    b = generate_plan(42)
    assert a.canonical_json() == b.canonical_json()
    assert a.digest() == b.digest()


def test_seeds_differ():
    digests = {generate_plan(seed).digest() for seed in range(1, 11)}
    assert len(digests) > 1


def test_round_trip_is_lossless():
    plan = generate_plan(7)
    clone = FuzzPlan.from_dict(plan.to_dict())
    assert clone.canonical_json() == plan.canonical_json()
    assert clone.digest() == plan.digest()


def test_unknown_version_rejected():
    data = generate_plan(1).to_dict()
    data["version"] = 99
    with pytest.raises(ValueError, match="version"):
        FuzzPlan.from_dict(data)


def test_overrides_pin_dimensions():
    plan = generate_plan(
        5, clients=2, txns_per_client=1, durable=False, strict=True
    )
    assert len(plan.clients) == 2
    assert all(len(c.txns) == 1 for c in plan.clients)
    assert not plan.durable
    assert plan.strict
    assert plan.crash_point is None  # crash implies durable


def test_crash_override_requires_durable():
    plan = generate_plan(5, durable=True, crash=True)
    assert plan.crash_point is not None
    assert plan.crash_at_hit >= 1


def test_op_count_counts_requests_not_sleeps():
    plan = generate_plan(3)
    expected = 0
    for client in plan.clients:
        for txn in client.txns:
            expected += 2 + sum(
                1 for op in txn.ops if op[0] != "sleep"
            )
    assert plan.op_count == expected
    assert plan.op_count > 0


def test_replication_fields_round_trip():
    plan = generate_plan(9, replicas=2)
    assert plan.replicas == 2
    assert plan.sync_replicas == 1
    clone = FuzzPlan.from_dict(plan.to_dict())
    assert clone.replicas == plan.replicas
    assert clone.sync_replicas == plan.sync_replicas
    assert clone.partitions == plan.partitions
    assert clone.canonical_json() == plan.canonical_json()


def test_pre_replication_plan_dicts_still_load():
    # Reproducer files written before replication existed have no
    # replicas/sync_replicas/partitions keys; they must load with the
    # no-replication defaults.
    data = generate_plan(6).to_dict()
    for key in ("replicas", "sync_replicas", "partitions"):
        data.pop(key)
    plan = FuzzPlan.from_dict(data)
    assert plan.replicas == 0
    assert plan.sync_replicas == 0
    assert plan.partitions == []


def test_replication_requires_durable():
    plan = generate_plan(9, durable=False, replicas=2)
    assert plan.replicas == 0
    for seed in range(60):
        plan = generate_plan(seed)
        if plan.replicas:
            assert plan.durable


def test_sharding_fields_round_trip_and_default():
    plan = generate_plan(4, shards=4)
    assert plan.shards == 4
    clone = FuzzPlan.from_dict(plan.to_dict())
    assert clone.shards == 4
    assert clone.canonical_json() == plan.canonical_json()
    # Reproducer files written before sharding existed have no
    # "shards" key; they must load as single-shard plans.
    data = generate_plan(6).to_dict()
    data.pop("shards")
    assert FuzzPlan.from_dict(data).shards == 1


def test_shard_roll_is_after_every_other_draw():
    # The shard dimension sits at the very end of the seed stream:
    # pinning it must not disturb any earlier draw (for seeds that
    # drew no replication, which a shard pin would suppress).
    checked = 0
    for seed in range(40):
        free = generate_plan(seed)
        if free.replicas:
            continue
        checked += 1
        pinned = generate_plan(seed, shards=4).to_dict()
        reference = free.to_dict()
        pinned.pop("shards")
        reference.pop("shards")
        assert pinned == reference
    assert checked > 10


def test_sharding_and_replication_are_exclusive():
    with pytest.raises(ValueError, match="replicas"):
        generate_plan(9, shards=2, replicas=1)
    # Seed-drawn replication forces single-shard...
    for seed in range(120):
        plan = generate_plan(seed)
        if plan.replicas:
            assert plan.shards == 1
    # ...and an explicit shard pin suppresses seed-drawn replication.
    pinned = generate_plan(9, shards=4)
    assert pinned.shards == 4
    assert pinned.replicas == 0
    assert pinned.sync_replicas == 0
    assert pinned.partitions == []


def test_seed_stream_reaches_shard_dimensions():
    plans = [generate_plan(seed) for seed in range(120)]
    assert any(p.shards == 2 for p in plans)
    assert any(p.shards == 4 for p in plans)
    assert any(
        p.shards > 1 and p.durable and p.crash_point for p in plans
    )


def test_seed_stream_reaches_replication_dimensions():
    # The seed alone must exercise followers, partitions, and the
    # partition+crash combination somewhere in a modest seed range.
    plans = [generate_plan(seed) for seed in range(120)]
    assert any(p.replicas for p in plans)
    assert any(p.partitions for p in plans)
    assert any(p.replicas and p.crash_point for p in plans)
    for plan in plans:
        for window in plan.partitions:
            index, start, end = window
            assert 0 <= index < plan.replicas
            assert 0.0 <= start < end


@pytest.mark.parametrize(
    "overrides",
    [
        {"shards": 2, "replicas": 1},
        {"durable": False, "crash_point": "wal.mid_record"},
        {"durable": False, "replicas": 1},
        {"crash_point": "wal.nope"},
        {"replicas": 1, "sync_replicas": 2},
    ],
    ids=[
        "sharded-replicated",
        "in-memory-crash-point",
        "in-memory-replicas",
        "unknown-crash-point",
        "sync-beyond-replicas",
    ],
)
def test_contradictory_plans_are_refused_where_loaded_and_run(overrides):
    data = generate_plan(1, durable=True, shards=1).to_dict()
    data.update(overrides)
    with pytest.raises(PlanError):
        FuzzPlan.from_dict(data)
    plan = replace(generate_plan(1, durable=True, shards=1), **overrides)
    with pytest.raises(PlanError):
        execute_plan(plan)
