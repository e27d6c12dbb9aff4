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
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Any, ClassVar

from ..durability.crashpoints import CRASH_POINTS
from ..errors import ReproError
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


class PlanError(ReproError, ValueError):
    """A plan whose settings contradict each other: nothing can run it."""


@dataclass(kw_only=True)
class ServerSettings:
    """The server settings a fuzz plan and a cluster scenario share.

    Declared once: :class:`FuzzPlan` and
    :class:`~repro.des.scenarios.Scenario` both inherit them, and a
    scenario's epoch plan copies them over by :func:`dataclasses.fields`.
    """

    seed: int = 0
    strict: bool = False
    queue_size: int = 8
    request_timeout: float = 1.0
    drain_grace: float = 2.0
    flush_interval: float = 0.0
    checkpoint_every: int = 0
    #: Commit replies wait for this many follower acks (k-th highest).
    sync_replicas: int = 0
    #: Partition windows ``[replica_index, start, end]`` in virtual
    #: seconds: the replica neither receives batches nor acks inside
    #: the window (it heals when the window closes).
    partitions: list[list[Any]] = field(default_factory=list)

    #: The :meth:`to_dict` format's version.
    VERSION: ClassVar[int] = 1

    def to_dict(self) -> dict[str, Any]:
        return {"version": self.VERSION, **asdict(self)}

    @classmethod
    def _fields_from(cls, data: dict[str, Any]) -> dict[str, Any]:
        """``data``'s fields, once its version is checked.

        Missing optional fields keep their defaults; a missing required
        one (say ``seed``) raises ``KeyError``.
        """
        version = data.get("version", cls.VERSION)
        if version != cls.VERSION:
            raise ValueError(
                f"unsupported {cls.__name__} version {version!r} "
                f"(this build speaks {cls.VERSION})"
            )
        return {
            f.name: data[f.name]
            for f in fields(cls)
            if f.name in data or f.default is f.default_factory is MISSING
        }

    def canonical_json(self) -> str:
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def digest(self) -> str:
        """Stable content hash — identifies a run across reports."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")
        ).hexdigest()[:16]


@dataclass(kw_only=True)
class FuzzPlan(ServerSettings):
    """Everything a run needs; JSON-round-trippable."""

    seed: int = field()  # required: no inherited default
    durable: bool = True
    crash_point: "str | None" = None
    crash_at_hit: int = 1
    #: WAL-shipping replication: how many in-run followers to pump
    #: (durable plans only; 0 = no replication).
    replicas: int = 0
    #: Entity-space shards (1 = the classic single-stack server).
    shards: int = 1
    clients: list[ClientPlan] = field(default_factory=list)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FuzzPlan":
        """Load a plan; keys older files lack take their defaults."""
        clients = [ClientPlan.from_dict(c) for c in data.get("clients", [])]
        plan = cls(**cls._fields_from(data) | {"clients": clients})
        plan.partitions = [list(window) for window in plan.partitions]
        return plan.validate()

    def validate(self) -> "FuzzPlan":
        """Refuse contradictory settings with :class:`PlanError`.

        :func:`generate_plan` never emits such a plan (it coerces its
        draws); a hand-edited reproducer or a plan built in code can.
        """
        if not self.durable and self.replicas:
            raise PlanError("replicas need a durable plan (a WAL to ship)")
        if not self.durable and self.crash_point is not None:
            raise PlanError(
                "a crash point needs a durable plan (a WAL to crash)"
            )
        if self.crash_point not in (None, *CRASH_POINTS):
            raise PlanError(f"unknown crash point {self.crash_point!r}")
        if self.shards > 1 and self.replicas:
            raise PlanError(
                "sharded plans cannot ship a WAL (replicas must be 0)"
            )
        if self.sync_replicas > self.replicas:
            raise PlanError(
                f"sync_replicas {self.sync_replicas} exceeds replicas "
                f"{self.replicas}: no commit could ever be acked"
            )
        return self

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
        raise PlanError("shards > 1 cannot be combined with replicas")
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
