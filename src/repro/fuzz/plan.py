"""Fuzz plans: what a run will do, decided before it starts.

Determinism and shrinkability both fall out of one decision: the seed
is consumed *up front* to produce an explicit :class:`FuzzPlan` — every
client's scripted transactions (:class:`~repro.workload.Txn`, drawn
by :func:`~repro.workload.families.fuzz_txn`: predicates, writes,
think times, terminal action), the fault schedule (disconnects, an
optional armed crash point), and the server tunables (queue size,
request timeout, strict mode).  Execution then follows the plan with
no further randomness, so

* the same seed always produces the same run (the RNG is never
  consulted mid-flight, where control flow could skew the stream), and
* the shrinker can delete clients, transactions, and individual
  operations from the plan and re-run, which would be meaningless for
  a run that re-rolled dice as it went.

Plans serialize to JSON and back losslessly; a minimized failing plan
*is* the reproducer file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any

from ..workload import Txn
from ..workload.families import fuzz_txn

#: Crash points reachable with WAL appends alone.
_WAL_CRASH_POINTS = (
    "wal.mid_record",
    "wal.before_flush",
    "wal.after_flush",
)

#: Crash points that additionally need checkpoints to trigger.
_CHECKPOINT_CRASH_POINTS = (
    "checkpoint.mid_write",
    "checkpoint.before_rename",
    "checkpoint.after_rename",
)

PLAN_VERSION = 1


@dataclass
class ClientPlan:
    """One scripted session: transactions plus an optional disconnect."""

    client_id: int
    txns: list[Txn]
    #: Disconnect (without clean aborts) after this many *requests*.
    disconnect_after: "int | None" = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "client_id": self.client_id,
            "txns": [txn.to_dict() for txn in self.txns],
            "disconnect_after": self.disconnect_after,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ClientPlan":
        return cls(
            client_id=data["client_id"],
            txns=[Txn.from_dict(t) for t in data["txns"]],
            disconnect_after=data.get("disconnect_after"),
        )


@dataclass
class FuzzPlan:
    """Everything a run needs; JSON-round-trippable."""

    seed: int
    strict: bool = False
    durable: bool = True
    queue_size: int = 8
    request_timeout: float = 1.0
    drain_grace: float = 2.0
    flush_interval: float = 0.0
    checkpoint_every: int = 0
    crash_point: "str | None" = None
    crash_at_hit: int = 1
    #: WAL-shipping replication: how many in-run followers to pump
    #: (durable plans only; 0 = no replication).
    replicas: int = 0
    #: Commit replies wait for this many follower acks (k-th highest).
    sync_replicas: int = 0
    #: Partition windows ``[replica_index, start, end]`` in virtual
    #: seconds: the replica neither receives batches nor acks inside
    #: the window (it heals when the window closes).
    partitions: list[list[Any]] = field(default_factory=list)
    #: Entity-space shards (1 = the classic single-stack server).
    shards: int = 1
    clients: list[ClientPlan] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": PLAN_VERSION,
            "seed": self.seed,
            "strict": self.strict,
            "durable": self.durable,
            "queue_size": self.queue_size,
            "request_timeout": self.request_timeout,
            "drain_grace": self.drain_grace,
            "flush_interval": self.flush_interval,
            "checkpoint_every": self.checkpoint_every,
            "crash_point": self.crash_point,
            "crash_at_hit": self.crash_at_hit,
            "replicas": self.replicas,
            "sync_replicas": self.sync_replicas,
            "partitions": [list(window) for window in self.partitions],
            "shards": self.shards,
            "clients": [client.to_dict() for client in self.clients],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FuzzPlan":
        version = data.get("version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise ValueError(
                f"unsupported plan version {version!r} "
                f"(this build speaks {PLAN_VERSION})"
            )
        return cls(
            seed=data["seed"],
            strict=data.get("strict", False),
            durable=data.get("durable", True),
            queue_size=data.get("queue_size", 8),
            request_timeout=data.get("request_timeout", 1.0),
            drain_grace=data.get("drain_grace", 2.0),
            flush_interval=data.get("flush_interval", 0.0),
            checkpoint_every=data.get("checkpoint_every", 0),
            crash_point=data.get("crash_point"),
            crash_at_hit=data.get("crash_at_hit", 1),
            replicas=data.get("replicas", 0),
            sync_replicas=data.get("sync_replicas", 0),
            partitions=[
                list(window) for window in data.get("partitions", [])
            ],
            shards=data.get("shards", 1),
            clients=[
                ClientPlan.from_dict(c) for c in data.get("clients", [])
            ],
        )

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """Stable content hash — identifies a schedule across reports."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()[:16]

    @property
    def op_count(self) -> int:
        """Total requests the plan issues (the reproducer size metric)."""
        return sum(
            txn.request_count
            for client in self.clients
            for txn in client.txns
        )


def generate_plan(
    seed: int,
    *,
    clients: "int | None" = None,
    txns_per_client: "int | None" = None,
    durable: "bool | None" = None,
    strict: "bool | None" = None,
    crash: "bool | None" = None,
    replicas: "int | None" = None,
    shards: "int | None" = None,
    think_max: float = 0.2,
) -> FuzzPlan:
    """Deterministically expand ``seed`` into a full :class:`FuzzPlan`.

    Keyword overrides pin a dimension instead of letting the seed
    choose it (the CLI exposes them); everything else still derives
    from the seed, so overridden plans remain reproducible.
    """
    rng = random.Random(seed)
    n_clients = clients if clients is not None else rng.randint(2, 4)
    use_strict = strict if strict is not None else rng.random() < 0.4
    use_durable = durable if durable is not None else rng.random() < 0.8
    checkpoint_every = rng.choice([0, 0, 0, 8]) if use_durable else 0
    want_crash = (
        crash if crash is not None else rng.random() < 0.3
    ) and use_durable
    crash_point: "str | None" = None
    crash_at_hit = 1
    if want_crash:
        points = list(_WAL_CRASH_POINTS)
        if checkpoint_every:
            points += list(_CHECKPOINT_CRASH_POINTS)
        crash_point = rng.choice(points)
        crash_at_hit = rng.randint(1, 6)
    plan = FuzzPlan(
        seed=seed,
        strict=use_strict,
        durable=use_durable,
        queue_size=rng.choice([2, 4, 8, 64]),
        request_timeout=rng.choice([0.05, 0.3, 2.0]),
        flush_interval=0.0,
        checkpoint_every=checkpoint_every,
        crash_point=crash_point,
        crash_at_hit=crash_at_hit,
    )
    earlier_labels: list[str] = []
    for client_id in range(n_clients):
        n_txns = (
            txns_per_client
            if txns_per_client is not None
            else rng.randint(1, 3)
        )
        txns = []
        for txn_index in range(n_txns):
            label = f"c{client_id}t{txn_index}"
            txns.append(fuzz_txn(rng, label, earlier_labels, think_max))
            earlier_labels.append(label)
        client = ClientPlan(client_id=client_id, txns=txns)
        total_requests = sum(t.request_count for t in txns)
        if total_requests > 1 and rng.random() < 0.25:
            client.disconnect_after = rng.randint(1, total_requests - 1)
        plan.clients.append(client)
    # Replication dimensions consume the seed stream strictly *after*
    # every draw above, so introducing them left all pre-existing
    # pinned seeds (and their minimized reproducers) byte-identical.
    n_replicas = replicas
    if n_replicas is None:
        n_replicas = (
            rng.randint(1, 2)
            if use_durable and rng.random() < 0.35
            else 0
        )
    if not use_durable:
        n_replicas = 0  # shipping needs a WAL to tail
    plan.replicas = n_replicas
    if n_replicas:
        plan.sync_replicas = 1
        for index in range(n_replicas):
            if rng.random() < 0.4:
                start = round(rng.uniform(0.0, 8.0), 3)
                length = round(rng.uniform(0.3, 4.0), 3)
                plan.partitions.append(
                    [index, start, round(start + length, 3)]
                )
    # Sharding came after replication; its roll sits at the very end of
    # the stream for the same pinned-seed-compatibility reason.  The
    # two features are mutually exclusive (a sharded leader cannot ship
    # a single WAL): pinning both is an error, pinning one suppresses
    # the seed's draw of the other, and a seed left free to draw both
    # keeps replication and stays single-shard.
    if shards is not None and shards > 1 and replicas:
        raise ValueError("shards > 1 cannot be combined with replicas")
    shard_roll = rng.random()
    n_shards = shards
    if n_shards is None:
        if shard_roll < 0.15:
            n_shards = 4
        elif shard_roll < 0.35:
            n_shards = 2
        else:
            n_shards = 1
    if n_shards > 1 and shards is not None:
        # An explicit shard pin wins over seed-drawn replication.
        plan.replicas = 0
        plan.sync_replicas = 0
        plan.partitions = []
    if plan.replicas:
        n_shards = 1
    plan.shards = n_shards
    return plan
