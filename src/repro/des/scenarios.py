"""The adversarial scenario library of the cluster simulator.

A :class:`Scenario` is the DES analogue of a :class:`FuzzPlan`: every
knob a cluster run needs, decided before it starts, JSON-round-trippable
so a scenario file *is* a reproducer.  The shipped :data:`SCENARIOS`
library encodes the failure modes the paper's protocol is supposed to
survive — hot-key contention, long CAD transactions (§2.1), abort
cascades, BUSY thundering herds, primary crash + promotion under a
partition, and follower lag divergence — each validated by the fuzz
oracle registry (:data:`repro.fuzz.oracles.ORACLES`), per epoch and
over the whole cluster history.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..fuzz.plan import ServerSettings
from ..workload.families import FAMILIES


#: The workload kinds a scenario can name: the rows of ``FAMILIES``.
WORKLOAD_KINDS = tuple(FAMILIES)


@dataclass(kw_only=True)
class Scenario(ServerSettings):
    """Everything one cluster simulation needs; JSON-round-trippable.

    The server settings are the plan's own (:class:`ServerSettings`).
    """

    name: str
    description: str = ""

    # -- topology ----------------------------------------------------------
    clients: int = 3
    followers: int = 2
    #: Commit replies wait for this many follower acks (0 = async).
    sync_replicas: int = 1

    # -- workload ----------------------------------------------------------
    workload: str = "mixed"
    txns_per_client: int = 4
    #: Transactions per client in the post-promotion epoch (crash
    #: scenarios only).
    post_crash_txns_per_client: int = 2
    think_max: float = 0.05

    # -- network model -----------------------------------------------------
    latency: float = 0.002
    jitter: float = 0.002
    bandwidth: float = 0.0
    #: ``node name -> latency multiplier`` (e.g. ``{"follower1": 25.0}``).
    slow_nodes: dict[str, float] = field(default_factory=dict)

    # -- faults ------------------------------------------------------------
    #: Probability (per follower, drawn from the seed at plan time)
    #: of one additional generated partition window.
    partition_rate: float = 0.0
    #: Kill the primary dispatcher at this virtual time (None = never).
    crash_primary_at: "float | None" = None

    # -- follower reads ----------------------------------------------------
    #: Issue a bounded-stale read after every Nth transaction
    #: (0 = no follower reads).
    follower_read_every: int = 0
    max_lag_lsn: "int | None" = None
    #: Thread commit-LSN session tokens into follower reads
    #: (read-your-writes).
    read_your_writes: bool = True

    #: Virtual-time ceiling; pumps exit past it so the loop's deadlock
    #: detector can fire on a genuinely stuck run.
    horizon: float = 120.0

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Scenario":
        return cls(**cls._fields_from(data))

    def with_overrides(self, **overrides: Any) -> "Scenario":
        return replace(self, **overrides)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="hot_key_storm",
            description=(
                "Six writers hammer the same entity through a small "
                "queue: selection conflicts, contention aborts, and "
                "BUSY backpressure, with bounded-stale reads riding "
                "along."
            ),
            seed=11,
            clients=6,
            followers=2,
            sync_replicas=1,
            workload="hot_key",
            txns_per_client=4,
            think_max=0.01,
            queue_size=8,
            follower_read_every=2,
        ),
        Scenario(
            name="cad_long_txns",
            description=(
                "Long-duration CAD-style transactions (paper §2.1): "
                "slow multi-entity readers hold RV locks across long "
                "think times while short writers weave between them."
            ),
            seed=23,
            clients=4,
            followers=2,
            sync_replicas=1,
            workload="cad",
            txns_per_client=3,
            think_max=0.4,
            request_timeout=5.0,
            follower_read_every=3,
        ),
        Scenario(
            name="abort_cascade",
            description=(
                "Writers abort after dependents have read their "
                "versions: cascade amplification through predecessor "
                "chains."
            ),
            seed=37,
            clients=4,
            followers=2,
            sync_replicas=1,
            workload="cascade",
            txns_per_client=4,
            think_max=0.08,
        ),
        Scenario(
            name="busy_retry_herd",
            description=(
                "Eight clients stampede a queue of two with zero "
                "think time: a BUSY-retry thundering herd riding the "
                "deterministic backoff."
            ),
            seed=41,
            clients=8,
            followers=1,
            sync_replicas=1,
            workload="herd",
            txns_per_client=3,
            think_max=0.0,
            queue_size=2,
            request_timeout=2.0,
            # Co-located clients: zero transit spread, so the whole
            # herd lands in the same virtual instant and the queue
            # actually overflows (jitter would serialize arrivals).
            latency=0.0,
            jitter=0.0,
        ),
        Scenario(
            name="primary_crash_promotion",
            description=(
                "The primary is killed mid-run while one follower is "
                "partitioned: election over the healed set, in-place "
                "promotion through recover --verify, and a second "
                "epoch on the survivor."
            ),
            seed=53,
            clients=4,
            followers=3,
            sync_replicas=1,
            workload="mixed",
            txns_per_client=8,
            think_max=0.1,
            partitions=[[2, 0.4, 2.5]],
            crash_primary_at=0.9,
            post_crash_txns_per_client=3,
            follower_read_every=3,
        ),
        Scenario(
            name="follower_lag_divergence",
            description=(
                "One follower 25x slower and another partitioned: "
                "divergent lag under bounded-stale reads with a "
                "max_lag_lsn budget and read-your-writes tokens."
            ),
            seed=67,
            clients=4,
            followers=3,
            sync_replicas=1,
            workload="mixed",
            txns_per_client=5,
            think_max=0.05,
            latency=0.005,
            jitter=0.004,
            slow_nodes={"follower2": 25.0},
            partitions=[[1, 0.3, 1.6]],
            follower_read_every=2,
            max_lag_lsn=64,
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(
            f"unknown scenario {name!r} (known: {known})"
        ) from None
