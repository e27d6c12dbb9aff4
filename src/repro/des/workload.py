"""A :class:`Scenario` as a run of the one executor.

Same discipline as :mod:`repro.fuzz.plan`: the seed is consumed *up
front*, at plan time, into explicit :class:`~repro.fuzz.plan.ClientPlan`
scripts — execution never touches an RNG, so the same scenario + seed
always produces the same cluster run.  Each client draws its
transactions from the scenario's family in
:data:`~repro.workload.families.FAMILIES`, on its own seeded stream.
The scripts use the :class:`~repro.workload.Txn` op encoding plus one
cluster-only op:

``["follower_read", entity_or_None, follower_index]``
    a bounded-stale read routed to the given follower node, carrying
    the scenario's ``max_lag_lsn`` bound and (when enabled) the
    session's read-your-writes token.

Post-promotion scripts carry an ``e2`` label prefix so transaction
labels stay globally unique across the whole cluster history — the
oracle evidence depends on it.
"""

from __future__ import annotations

import random
from dataclasses import fields
from functools import partial
from pathlib import Path
from typing import Any

from ..fuzz.harness import FollowerReads
from ..fuzz.plan import ClientPlan, FuzzPlan, ServerSettings
from ..fuzz.runner import RunSpec, execute
from ..workload.families import ENTITIES, FAMILIES
from .network import Network
from .report import sim_report
from .scenarios import Scenario


def _rng(scenario: Scenario, *scope: Any) -> random.Random:
    """A seeded stream for one (scenario, phase, client, ...) scope."""
    return random.Random(
        ":".join(str(part) for part in (scenario.seed, *scope))
    )


def expand_partitions(scenario: Scenario) -> list[list[float]]:
    """Explicit windows plus ``partition_rate``-generated ones."""
    windows = [list(window) for window in scenario.partitions]
    if scenario.partition_rate > 0.0:
        rng = _rng(scenario, "partitions")
        for index in range(scenario.followers):
            if rng.random() < scenario.partition_rate:
                start = round(rng.uniform(0.2, 2.0), 3)
                length = round(rng.uniform(0.3, 1.5), 3)
                windows.append([index, start, round(start + length, 3)])
    return windows


def _maybe_follower_read(
    scenario: Scenario,
    rng: random.Random,
    ops: "list[list[Any]]",
    txn_index: int,
) -> None:
    if scenario.followers <= 0 or scenario.follower_read_every <= 0:
        return
    if (txn_index + 1) % scenario.follower_read_every:
        return
    entity = rng.choice([None, *ENTITIES])
    # Before the terminal op: the client loop stops at commit/abort.
    ops.insert(
        max(0, len(ops) - 1),
        ["follower_read", entity, rng.randrange(scenario.followers)],
    )


def expand_clients(
    scenario: Scenario, phase: str, txns_per_client: int
) -> "list[ClientPlan]":
    """One epoch's client scripts, labels unique per phase."""
    family = FAMILIES.get(scenario.workload)
    if family is None:
        raise ValueError(
            f"unknown workload kind {scenario.workload!r} "
            f"(known: {', '.join(FAMILIES)})"
        )
    prefix = "" if phase == "e1" else phase
    clients: list[ClientPlan] = []
    earlier: list[str] = []
    for client_id in range(scenario.clients):
        rng = _rng(scenario, phase, client_id)
        txns = []
        for txn_index in range(txns_per_client):
            label = f"{prefix}c{client_id}t{txn_index}"
            txn = family(
                rng,
                label,
                earlier=earlier,
                think_max=scenario.think_max,
                client=client_id,
                index=txn_index,
            )
            _maybe_follower_read(scenario, rng, txn.ops, txn_index)
            txns.append(txn)
            earlier.append(label)
        clients.append(ClientPlan(client_id=client_id, txns=txns))
    return clients


def cluster_spec(scenario: Scenario) -> RunSpec:
    """The run ``scenario`` describes; its first epoch is a plan with
    the scenario's own server settings."""
    partitions = expand_partitions(scenario)
    plan = FuzzPlan(
        **{f.name: getattr(scenario, f.name) for f in fields(ServerSettings)},
        replicas=scenario.followers,
        clients=expand_clients(scenario, "e1", scenario.txns_per_client),
    )
    plan.sync_replicas = min(plan.sync_replicas, plan.replicas)
    plan.partitions = partitions
    return RunSpec(
        plan,
        network=partial(
            Network,
            seed=scenario.seed,
            latency=scenario.latency,
            jitter=scenario.jitter,
            bandwidth=scenario.bandwidth,
            slow_nodes=dict(scenario.slow_nodes),
            partitions=[
                (f"follower{int(index)}", start, end)
                for index, start, end in partitions
            ],
        ),
        kill_at=scenario.crash_primary_at,
        successor=(
            expand_clients(
                scenario, "e2", scenario.post_crash_txns_per_client
            )
            if scenario.crash_primary_at is not None
            else None
        ),
        follower_name="follower",
        give_up="sim client gave up",
        traced=False,
        reads=FollowerReads(scenario.max_lag_lsn, scenario.read_your_writes),
        horizon=scenario.horizon,
    )


def run_scenario(
    scenario: Scenario, workdir: "Path | str | None" = None
) -> dict[str, Any]:
    """One scenario, one report."""
    return sim_report(scenario, execute(cluster_spec(scenario), workdir))
