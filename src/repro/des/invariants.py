"""Cluster-level invariants, plus which fuzz oracles transfer where.

The fuzz oracle suite judges ONE server's run.  The DES runs a
cluster, possibly across a promotion, so correctness splits into two
layers:

* **per-epoch**: each epoch's transcript + artifacts are fuzz-shaped
  :class:`~repro.fuzz.harness.Evidence`, judged by the fuzz oracles
  through :func:`repro.fuzz.oracles.run_oracles`.  Epoch 1 (whether it
  ends cleanly or in a primary kill) gets the full suite.  Epoch 2
  (post-promotion) gets :data:`EPOCH2_ORACLES` — everything except
  ``write_multiplicity`` (acked writes of transactions the dead
  primary never committed may be legitimately absent from the winner's
  log) and ``metrics_consistent``, which the engine re-runs separately
  against an epoch-2-only view of the indeterminate set because the
  new primary's counters never saw epoch 1.

* **cluster**: the invariants below, over the *whole* history —
  every acked commit and acked committed write survives into the final
  primary no matter the partition schedule, follower reads honor their
  staleness bounds (and rejections are honest), and promotion extends
  the recovered history without rewriting it.
"""

from __future__ import annotations

from typing import Any

from ..durability.records import OP_WRITE
from ..fuzz.oracles import OracleResult

#: The fuzz oracles that transfer to a post-promotion epoch, given the
#: engine folds the promotion baseline into ``indeterminate_committed``
#: (epoch-1 history: legitimately committed, never acked this epoch).
EPOCH2_ORACLES = [
    "no_deadlock",
    "replies_complete",
    "recovery_verified",
    "committed_prefix",
    "history_rc",
    "classifier_lattice",
    "protocol_verify",
    "acked_commits_survive_promotion",
    "prefix_consistency",
]


def cluster_invariants(
    evidences: "list[Any]",
    *,
    final_records: "list[Any] | None",
    final_recovery: Any,
    baseline_committed: "list[str] | None",
) -> list[OracleResult]:
    """All cluster-level verdicts, in a fixed order."""
    return [
        _no_acked_write_lost(evidences, final_records, final_recovery),
        _bounded_staleness(evidences),
        _promotion_continuity(baseline_committed, final_recovery),
    ]


def _no_acked_write_lost(
    evidences: "list[Any]",
    final_records: "list[Any] | None",
    final_recovery: Any,
) -> OracleResult:
    """No acked commit — and none of its acked writes — is ever lost.

    The cluster-wide durability contract: once a commit was
    acknowledged to a client in ANY epoch, the transaction (and every
    write the client got an ``ok`` for inside it) is in the FINAL
    primary's recovered history, no matter which node died or which
    links were partitioned in between.
    """
    name = "cluster_no_acked_write_lost"
    if final_recovery is None:
        return OracleResult.skip(
            name, "final primary recovery unavailable"
        )
    final_committed = set(final_recovery.committed)
    details: list[str] = []
    acked_by_epoch: list[tuple[int, str]] = []
    for epoch_index, evidence in enumerate(evidences, start=1):
        for txn in evidence.acked_committed:
            acked_by_epoch.append((epoch_index, txn))
            if txn not in final_committed:
                details.append(
                    f"epoch {epoch_index}: acked commit {txn} missing "
                    f"from the final primary's recovered history"
                )
    # Write-level: only checkable while the final log still starts at
    # LSN 1 (a snapshot resync on the eventual winner legitimately
    # truncates early history — the commit-level check above stands).
    if (
        final_records
        and final_records[0].lsn == 1
        and not details
    ):
        logged: dict[tuple[str, str], int] = {}
        for record in final_records:
            if record.op == OP_WRITE:
                key = (record.txn, record.data["entity"])
                logged[key] = logged.get(key, 0) + 1
        surviving = {txn for _, txn in acked_by_epoch}
        for epoch_index, evidence in enumerate(evidences, start=1):
            for entry in evidence.requests.values():
                if (
                    entry["op"] != "write"
                    or entry["status"] != "ok"
                    or entry["txn"] not in surviving
                ):
                    continue
                key = (entry["txn"], entry["entity"])
                if logged.get(key, 0) < 1:
                    details.append(
                        f"epoch {epoch_index}: acked write on "
                        f"{key[0]}/{key[1]} left no WAL record in the "
                        f"final primary"
                    )
    return OracleResult(name, not details, details)


def _bounded_staleness(evidences: "list[Any]") -> OracleResult:
    """Follower reads honor their bounds; rejections are honest.

    Every ``ok`` follower read must satisfy the ``max_lag_lsn`` and
    ``min_applied_lsn`` bounds it carried; every ``FOLLOWER_READ``
    rejection must have had a genuinely unsatisfiable bound (or no
    replicated state at all) — a follower may never claim staleness it
    does not have.
    """
    name = "cluster_bounded_staleness"
    details: list[str] = []
    checked = 0
    for evidence in evidences:
        for entry in evidence.requests.values():
            if entry["op"] != "follower_read":
                continue
            bounds = entry.get("bounds") or {}
            max_lag = bounds.get("max_lag_lsn")
            min_applied = bounds.get("min_applied_lsn")
            where = (
                f"client {entry['client']} rid {entry['rid']} "
                f"on {entry.get('node')}"
            )
            if entry["status"] == "ok":
                checked += 1
                lag = entry.get("lag_lsn")
                applied = entry.get("applied_lsn")
                if (
                    max_lag is not None
                    and isinstance(lag, int)
                    and lag > max_lag
                ):
                    details.append(
                        f"{where}: served with lag_lsn {lag} over "
                        f"max_lag_lsn {max_lag}"
                    )
                if (
                    min_applied is not None
                    and isinstance(applied, int)
                    and applied < min_applied
                ):
                    details.append(
                        f"{where}: served at applied_lsn {applied} "
                        f"behind min_applied_lsn {min_applied} "
                        f"(read-your-writes)"
                    )
            elif entry["status"] == "error:FOLLOWER_READ":
                checked += 1
                reported = entry.get("error_details") or {}
                lag = reported.get("lag_lsn")
                applied = reported.get("applied_lsn")
                honest = (
                    # No replicated state yet: always refusable.
                    applied == 0
                    or (
                        max_lag is not None
                        and isinstance(lag, int)
                        and lag > max_lag
                    )
                    or (
                        min_applied is not None
                        and isinstance(applied, int)
                        and applied < min_applied
                    )
                )
                if not honest:
                    details.append(
                        f"{where}: rejected as stale at applied_lsn "
                        f"{applied} lag_lsn {lag} though its bounds "
                        f"(max_lag_lsn {max_lag}, min_applied_lsn "
                        f"{min_applied}) were satisfiable"
                    )
    if checked == 0:
        return OracleResult.skip(
            name, "no follower reads in this run"
        )
    return OracleResult(name, not details, details)


def _promotion_continuity(
    baseline_committed: "list[str] | None",
    final_recovery: Any,
) -> OracleResult:
    """Promotion extends history; it never rewrites it.

    The committed order the promotion gate recovered on the winner
    must be a prefix of the committed order the final recovery sees —
    epoch 2 may only append.
    """
    name = "cluster_promotion_continuity"
    if baseline_committed is None:
        return OracleResult.skip(name, "no promotion in this run")
    if final_recovery is None:
        return OracleResult.skip(
            name, "final primary recovery unavailable"
        )
    final = list(final_recovery.committed)
    if final[: len(baseline_committed)] != list(baseline_committed):
        return OracleResult(
            name,
            False,
            [
                "promotion baseline is not a prefix of the final "
                f"history: baseline {baseline_committed!r} vs final "
                f"{final[: len(baseline_committed)]!r}"
            ],
        )
    return OracleResult(name, True)
