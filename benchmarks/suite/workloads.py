"""Seed -> inputs of the six workloads.

Everything the system under test sees is generated here from ``--seed``
with the ``repro.sim.workload`` generators (the same ones ``repro
serve`` builds its schema from), turned into plain wire-level
:class:`Script` records: the server receives only the requests a script
expands to, never the seed or the workload name.

Sizes are *fixed work*, calibrated so that one run measures about ten
seconds on the seed host; ``--seconds`` scales them linearly and
``--smoke`` divides them by twenty.  Fixed work (rather than a fixed
duration) is what lets counts such as ``cad_coop``'s aborted attempts
repeat exactly from run to run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.server import affinity_key, shard_of
from repro.sim.workload import (
    Read,
    TransactionScript,
    Write,
    cad_workload,
    oltp_workload,
)

#: ``--seconds`` value the sizes below are calibrated for.
BASE_SECONDS = 10

#: Fixed work per workload at ``--seconds 10`` (seed-host calibration).
#: ``setup_samples``: how many times spawn -> first ping is sampled per
#: run (throwaway spawns of the same configuration make up the count;
#: ``oltp_fresh`` spawns once per round anyway).
SIZES: dict[str, dict[str, int]] = {
    "oltp_fresh": {"rounds": 8, "txns": 400},
    "oltp_sustained": {"txns": 1500, "setup_samples": 3},
    "cad_coop": {"rounds": 125, "short_per_round": 7, "setup_samples": 3},
    "cad_sharded": {"txns": 1000, "setup_samples": 3},
    "oltp_sync_repl": {"txns": 1000, "setup_samples": 3},
    "census_random": {"schedules": 20000, "exact": 2000},
}

#: Smallest useful value of each size (smoke runs bottom out here).
_FLOORS = {"rounds": 2, "txns": 20, "schedules": 200, "exact": 20}

#: Long designer transactions of ``cad_coop`` make this many accesses,
#: the short cooperating ones ``SHORT_ACCESSES``.
LONG_ACCESSES = 32
SHORT_ACCESSES = 4

#: ``cad_sharded``: shard count and the cad generator's module layout.
SHARDS = 4
CAD_MODULES = 3
CAD_CROSS_MODULE = 0.2

WHY = {
    "oltp_fresh": (
        "short transactions on a fresh in-memory server every 400: "
        "history stays small, so wire framing, queueing and dispatch "
        "(repro.server) dominate and repro.protocol does little"
    ),
    "oltp_sustained": (
        "the same transactions in one durable server lifetime, then "
        "SIGKILL and restart: repro.protocol history growth, "
        "repro.durability checkpoints and recovery dominate"
    ),
    "cad_coop": (
        "long designer transactions with short cooperating successors: "
        "partial-order re-eval/re-assign, commit parking, cascade "
        "aborts and restarts (the protocol path oltp never takes)"
    ),
    "cad_sharded": (
        "module-local cad transactions over 4 durable shards with 20% "
        "cross-module access: repro.server.router, 2PC and durable "
        "PREPARE do the extra work, then SIGKILL and restart"
    ),
    "oltp_sync_repl": (
        "commits on a sync-replicated primary with read-your-writes "
        "follower reads beside them: repro.replication ship/fsync/ack "
        "and the fsync-per-commit WAL path"
    ),
    "census_random": (
        "no server: staged and exact classification of seeded random "
        "schedules, the formal-model half (repro.classes, "
        "repro.analysis, repro.schedules, repro.core)"
    ),
}

WORKLOADS = tuple(WHY)


def sizes_for(
    workload: str, seconds: float = BASE_SECONDS, smoke: bool = False
) -> dict[str, int]:
    """The workload's fixed work, scaled to ``seconds`` (or 1/20)."""
    scale = (1 / 20) if smoke else seconds / BASE_SECONDS
    sizes = dict(SIZES[workload])
    # One count per workload carries the scale; per-round shapes stay.
    key = "rounds" if "rounds" in sizes else (
        "txns" if "txns" in sizes else "schedules"
    )
    sizes[key] = max(_FLOORS[key], round(sizes[key] * scale))
    if "exact" in sizes:
        sizes["exact"] = max(
            _FLOORS["exact"], round(sizes["exact"] * scale)
        )
    if "setup_samples" in sizes and smoke:
        sizes["setup_samples"] = 1
    return sizes


def sub_seed(seed: int, *labels: object) -> int:
    """An independent generator seed for one part of a workload."""
    text = repr((seed,) + labels).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


@dataclass(frozen=True)
class Script:
    """One transaction as the wire sees it.

    ``steps`` are ``("r", entity)`` / ``("w", entity, base, delta)``:
    a write stores ``min(10000, value read from base + delta)``, the
    generators' bump rule made explicit so a script is plain data.
    """

    txn_id: str
    updates: tuple[str, ...]
    input: str
    output: str
    steps: tuple[tuple, ...]

    @property
    def entities(self) -> frozenset[str]:
        return frozenset(step[1] for step in self.steps)


_PROBE_STRIDE = 100  # > any bump delta (1..4), so base and delta decode


def _plain(script: TransactionScript, entities: list[str]) -> Script:
    """Flatten a generator script into wire-level plain data.

    Mirrors ``repro.server.loadgen``'s script -> wire mapping: the read
    set becomes the input constraint (one ``e >= 0`` conjunct each),
    the write set the update set and output condition.
    """
    probe = {
        entity: index * _PROBE_STRIDE
        for index, entity in enumerate(entities)
    }
    steps: list[tuple] = []
    for access in script.flat_accesses():
        if isinstance(access, Read):
            steps.append(("r", access.entity))
        else:
            assert isinstance(access, Write)
            # The bump closure is opaque; evaluating it on a probe
            # context with distinct, widely spaced values recovers
            # which entity it reads from and how much it adds.
            coded = access.resolve(probe)
            base = entities[coded // _PROBE_STRIDE]
            steps.append(
                ("w", access.entity, base, coded % _PROBE_STRIDE)
            )
    reads = sorted(script.read_entities)
    writes = sorted(script.write_entities)
    return Script(
        txn_id=script.txn_id,
        updates=tuple(writes),
        input=" & ".join(f"{e} >= 0" for e in reads) or "true",
        output=" & ".join(f"{e} >= 0" for e in writes) or "true",
        steps=tuple(steps),
    )


def _entities(workload) -> list[str]:
    return sorted(workload.fresh_database().schema.names)


def oltp_scripts(count: int, seed: int) -> list[Script]:
    """``count`` four-access oltp transactions (``serve --workload oltp``)."""
    workload = oltp_workload(num_transactions=count, seed=seed)
    entities = _entities(workload)
    return [_plain(script, entities) for script in workload.scripts]


def cad_scripts(
    count: int,
    seed: int,
    *,
    accesses: int = 6,
    key_dist: str = "uniform",
    cross_module: float = CAD_CROSS_MODULE,
) -> list[Script]:
    """``count`` cad transactions on the ``serve --workload cad`` schema.

    Think time and the generator's own cooperation edges are off: the
    driver saturates the server, and ``cad_coop`` declares its
    predecessors itself (the in-flight long transaction).
    """
    workload = cad_workload(
        num_designers=count,
        num_modules=CAD_MODULES,
        accesses_per_txn=accesses,
        think_time=0.0,
        cross_module_probability=cross_module,
        cooperation_probability=0.0,
        seed=seed,
        key_dist=key_dist,
    )
    entities = _entities(workload)
    return [_plain(script, entities) for script in workload.scripts]


def is_cross_shard(script: Script, shards: int = SHARDS) -> bool:
    """Does the script touch entities homed on more than one shard?"""
    homes = {
        shard_of(affinity_key(entity), shards)
        for entity in script.entities
    }
    return len(homes) > 1


def digest(scripts: list[Script]) -> str:
    """Content hash of a script list (generator determinism check)."""
    hasher = hashlib.sha256()
    for script in scripts:
        hasher.update(repr(script).encode("utf-8"))
    return hasher.hexdigest()[:16]


def census_seeds(count: int, seed: int) -> list[int]:
    """Per-schedule generator seeds of ``census_random``."""
    rng = random.Random(sub_seed(seed, "census"))
    return [rng.randrange(2**31) for _ in range(count)]
