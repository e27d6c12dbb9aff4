"""Expand a :class:`Scenario` into deterministic client scripts.

Same discipline as :mod:`repro.fuzz.plan`: the seed is consumed *up
front*, at plan time, into explicit :class:`~repro.fuzz.plan.ClientPlan`
scripts — execution never touches an RNG, so the same scenario + seed
always produces the same cluster run.  The per-transaction families
live in :mod:`repro.workload.families`; each client draws from its own
seeded stream.  The scripts use the :class:`~repro.workload.Txn` op
encoding plus one DES-only op:

``["follower_read", entity_or_None, follower_index]``
    a bounded-stale read routed to the given follower node, carrying
    the scenario's ``max_lag_lsn`` bound and (when enabled) the
    session's read-your-writes token.

Epoch-2 scripts (after a primary crash + promotion) carry an ``e2``
label prefix so transaction labels stay globally unique across the
whole cluster history — the oracle evidence depends on it.
"""

from __future__ import annotations

import random
from typing import Any

from ..fuzz.plan import ClientPlan, FuzzPlan
from ..workload import Txn
from ..workload.families import (
    ENTITIES,
    cad_txn,
    cascade_txn,
    herd_txn,
    hot_key_txn,
    mixed_txn,
)
from .scenarios import WORKLOAD_KINDS, Scenario


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


def build_clients(
    scenario: Scenario,
    *,
    phase: str = "e1",
    txns_per_client: "int | None" = None,
) -> "list[ClientPlan]":
    """Expand one epoch's client scripts, labels unique per phase."""
    if scenario.workload not in WORKLOAD_KINDS:
        raise ValueError(
            f"unknown workload kind {scenario.workload!r} "
            f"(known: {', '.join(WORKLOAD_KINDS)})"
        )
    n_txns = (
        txns_per_client
        if txns_per_client is not None
        else scenario.txns_per_client
    )
    prefix = "" if phase == "e1" else f"{phase}"
    clients: list[ClientPlan] = []
    earlier: list[str] = []
    for client_id in range(scenario.clients):
        rng = _rng(scenario, phase, client_id)
        txns: list[Txn] = []
        for txn_index in range(n_txns):
            label = f"{prefix}c{client_id}t{txn_index}"
            kind = scenario.workload
            think_max = scenario.think_max
            if kind == "hot_key":
                txn = hot_key_txn(rng, label, think_max)
            elif kind == "cad" and client_id % 2 == 0:
                txn = cad_txn(rng, label, think_max)
            elif kind == "cascade":
                txn = cascade_txn(
                    rng,
                    label,
                    earlier,
                    think_max,
                    aborter=(client_id + txn_index) % 3 == 0,
                )
            elif kind in ("cad", "herd"):  # cad's odd clients: short writes
                txn = herd_txn(rng, label)
            else:
                txn = mixed_txn(rng, label, earlier, think_max)
            _maybe_follower_read(scenario, rng, txn.ops, txn_index)
            txns.append(txn)
            earlier.append(label)
        clients.append(ClientPlan(client_id=client_id, txns=txns))
    return clients


def build_plan(
    scenario: Scenario,
    *,
    phase: str = "e1",
    clients: "list[ClientPlan] | None" = None,
    replicas: "int | None" = None,
    sync_replicas: "int | None" = None,
    partitions: "list[list[float]] | None" = None,
) -> FuzzPlan:
    """One epoch as a :class:`FuzzPlan`.

    The shared harness (:mod:`repro.fuzz.harness`) executes exactly
    this plan — stack tunables and client scripts — and the fuzz
    oracles read run configuration off ``evidence.plan``; the keyword
    overrides describe the post-promotion phase.
    """
    return FuzzPlan(
        seed=scenario.seed,
        strict=scenario.strict,
        durable=True,
        queue_size=scenario.queue_size,
        request_timeout=scenario.request_timeout,
        drain_grace=scenario.drain_grace,
        flush_interval=scenario.flush_interval,
        checkpoint_every=scenario.checkpoint_every,
        replicas=(
            replicas if replicas is not None else scenario.followers
        ),
        sync_replicas=(
            sync_replicas
            if sync_replicas is not None
            else scenario.sync_replicas
        ),
        partitions=(
            [list(w) for w in partitions]
            if partitions is not None
            else expand_partitions(scenario)
        ),
        clients=(
            clients
            if clients is not None
            else build_clients(scenario, phase=phase)
        ),
    )
