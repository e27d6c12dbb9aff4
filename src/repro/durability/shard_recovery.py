"""Cross-shard recovery: resolve in-doubt 2PC branches, then recover.

A sharded server lays its durability out as one WAL directory per
shard (``<base>/shard0``, ``<base>/shard1``, …), each a completely
ordinary single-manager WAL that :func:`~repro.durability.recovery.recover`
understands on its own.  The only cross-shard state is the two-phase
commit protocol: a branch that logged a durable PREPARE but no terminal
record is *in doubt* — its fate was decided (or not) on the coordinator
shard, whose branch's COMMIT record **is** the decision record (there
is no separate coordinator log; phase 2 commits the coordinator branch
first, so its terminal state is authoritative).

Resolution therefore runs *before* the per-shard recovery passes:

1. replay every shard's checkpoint + WAL suffix (redo only, no undo)
   to find prepared-but-unterminated branches;
2. for each, consult the coordinator shard's replayed state: if the
   coordinator branch committed, the global decision was commit —
   append a genuine COMMIT record to the in-doubt shard's WAL so its
   own recovery replays a complete history; otherwise leave the branch
   alone and let ``undo_in_flight`` abort it (presumed abort).

After resolution each shard recovers independently and the standard
verification (committed-prefix equality, consistency, Section-5
predicates) runs per shard; :func:`recover_sharded` wraps the whole
sequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import RecoveryError
from ..obs.metrics import MetricsRegistry
from ..protocol.state import TxnPhase, TxnRecord, values
from .records import OP_COMMIT
from .recovery import RecoveryResult, recover, redo
from .wal import WriteAheadLog

_SHARD_DIR = re.compile(r"^shard(\d+)$")


def shard_wal_dir(base_dir: "Path | str", index: int) -> Path:
    """The WAL directory of shard ``index`` under ``base_dir``."""
    return Path(base_dir) / f"shard{index}"


def list_shard_dirs(base_dir: "Path | str") -> list[tuple[int, Path]]:
    """``(index, path)`` for every shard directory, ordered by index."""
    base = Path(base_dir)
    if not base.is_dir():
        return []
    found = []
    for child in base.iterdir():
        match = _SHARD_DIR.match(child.name)
        if match is not None and child.is_dir():
            found.append((int(match.group(1)), child))
    return sorted(found)


def is_sharded_layout(base_dir: "Path | str") -> bool:
    """Whether ``base_dir`` is a sharded WAL base (vs a plain WAL dir)."""
    return bool(list_shard_dirs(base_dir))


# ---------------------------------------------------------------------------
# In-doubt resolution
# ---------------------------------------------------------------------------


def resolve_in_doubt(
    base_dir: "Path | str",
) -> list[dict[str, Any]]:
    """Decide every in-doubt 2PC branch across a sharded WAL base.

    Returns one report entry per in-doubt branch::

        {"gid": ..., "txn": ..., "shard": ..., "coordinator": ...,
         "decision": "commit" | "abort"}

    Commit decisions are made durable immediately (a COMMIT record
    appended to the owning shard's WAL); abort decisions write nothing
    — presumed abort means the subsequent per-shard ``recover()`` pass
    rolls the branch back as ordinary in-flight work.
    """
    shards = list_shard_dirs(base_dir)
    if not shards:
        return []
    # Redo only: prepared branches must be judged against what the log
    # *records*, not against what undo would roll back — undo is
    # exactly the step presumed-abort resolution runs or pre-empts.
    replayed = {index: redo(path) for index, path in shards}
    resolutions: list[dict[str, Any]] = []
    # Commit decisions grouped per shard so each WAL is appended to
    # once, in lsn order.
    decided: dict[int, list[TxnRecord]] = {}
    for index, shard in replayed.items():
        for txn in shard.state.records.values():
            # In doubt: promised to commit, never heard the decision.
            promise = txn.prepared
            if promise is None or txn.terminated:
                continue
            coordinator = promise.get("coordinator")
            participants = promise.get("participants", {})
            decision = "abort"
            coordinator_entry = replayed.get(coordinator)
            if coordinator_entry is not None:
                coordinator_branch = participants.get(str(coordinator))
                peer = coordinator_entry.state.records.get(
                    coordinator_branch or ""
                )
                if (
                    peer is not None
                    and peer.phase is TxnPhase.COMMITTED
                ):
                    decision = "commit"
            if decision == "commit":
                decided.setdefault(index, []).append(txn)
            resolutions.append(
                {
                    "gid": promise.get("gid"),
                    "txn": txn.name,
                    "shard": index,
                    "coordinator": coordinator,
                    "decision": decision,
                }
            )
    for index, branches in decided.items():
        wal = WriteAheadLog(
            shard_wal_dir(base_dir, index),
            next_lsn=replayed[index].last_lsn + 1,
        )
        try:
            for txn in branches:
                wal.append(
                    OP_COMMIT,
                    txn.name,
                    {"released": values(txn.released())},
                )
            wal.flush()
        finally:
            wal.close()
    return resolutions


# ---------------------------------------------------------------------------
# The full sharded pass
# ---------------------------------------------------------------------------


@dataclass
class ShardedRecoveryResult:
    """Per-shard recovery results plus the 2PC resolution report."""

    shards: dict[int, RecoveryResult]
    resolutions: list[dict[str, Any]] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(
            result.verified for result in self.shards.values()
        )

    def summary(self) -> dict[str, Any]:
        return {
            "verified": self.verified,
            "shards": {
                str(index): result.summary()
                for index, result in sorted(self.shards.items())
            },
            "resolutions": list(self.resolutions),
        }


def recover_sharded(
    base_dir: "Path | str",
    *,
    verify: bool = True,
    strict: bool = False,
    registry: MetricsRegistry | None = None,
) -> ShardedRecoveryResult:
    """Resolve in-doubt branches, then recover every shard.

    Raises :class:`RecoveryError` if ``base_dir`` holds no shard
    directories — callers should route plain WAL directories to
    :func:`~repro.durability.recovery.recover` instead (see
    :func:`is_sharded_layout`).
    """
    shards = list_shard_dirs(base_dir)
    if not shards:
        raise RecoveryError(
            f"no shard directories under {base_dir} "
            "(expected shard0, shard1, …)"
        )
    resolutions = resolve_in_doubt(base_dir)
    results = {
        index: recover(
            path, verify=verify, strict=strict, registry=registry
        )
        for index, path in shards
    }
    return ShardedRecoveryResult(
        shards=results, resolutions=resolutions
    )
