"""Deterministic report assembly for cluster simulation runs.

Everything in a report is a pure function of the scenario and the
virtual-time execution — no wall-clock timestamps, no environment —
so the same scenario + seed produces a byte-identical JSON document,
and a report diff IS a behavior diff.
"""

from __future__ import annotations

import math
from typing import Any

SIM_REPORT_VERSION = 1


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _epoch_section(entry: dict[str, Any]) -> dict[str, Any]:
    evidence = entry["evidence"]
    oracles = entry["oracles"]
    recovery = evidence.nodes[0].recovery  # one primary per epoch
    replies = [e for e in evidence.events if e["kind"] == "reply"]
    section = {
        "epoch": entry["epoch"],
        "crashed": evidence.crashed,
        "crash": evidence.crash_info,
        "counts": {
            "events": len(evidence.events),
            "requests": len(evidence.requests),
            "replies": len(replies),
            "busy": sum(
                1 for e in evidence.events if e["kind"] == "busy"
            ),
            "timeouts": sum(
                1 for e in replies if e.get("code") == "TIMEOUT"
            ),
            "commits_acked": len(evidence.acked_committed),
            "commits_indeterminate": len(
                evidence.indeterminate_committed
            ),
        },
        "acked_committed": list(evidence.acked_committed),
        "indeterminate_committed": list(
            evidence.indeterminate_committed
        ),
        "recovered_committed": (
            list(recovery.committed) if recovery is not None else None
        ),
        "recovery_error": evidence.recovery_error,
        "drain_summary": evidence.drain_summary,
        "replicas": evidence.replicas,
        "oracles": {
            result.name: {
                "ok": result.ok,
                "skipped": result.skipped,
                "details": list(result.details),
            }
            for result in oracles
        },
        "schedule": evidence.events,
    }
    section["ok"] = all(
        v["ok"] for v in section["oracles"].values()
    )
    return section


def _metrics(
    epochs: "list[dict[str, Any]]",
    samples: "list[dict[str, Any]]",
    virtual_duration: float,
) -> dict[str, Any]:
    commit_attempts = 0
    commits_acked = 0
    commits_indeterminate = 0
    aborts_acked = 0
    busy = 0
    timeouts = 0
    follower_reads_ok = 0
    follower_reads_rejected = 0
    for entry in epochs:
        evidence = entry["evidence"]
        commits_acked += len(evidence.acked_committed)
        commits_indeterminate += len(
            evidence.indeterminate_committed
        )
        for request in evidence.requests.values():
            status = request["status"]
            if request["op"] == "commit" and status != "pending":
                commit_attempts += 1
            elif request["op"] == "abort" and status == "ok":
                aborts_acked += 1
            elif request["op"] == "follower_read":
                if status == "ok":
                    follower_reads_ok += 1
                elif status != "pending":
                    follower_reads_rejected += 1
        for event in evidence.events:
            if event["kind"] == "busy":
                busy += 1
            elif (
                event["kind"] == "reply"
                and event.get("code") == "TIMEOUT"
            ):
                timeouts += 1
    resolved = commits_acked + commits_indeterminate
    failed_commits = max(0, commit_attempts - resolved)
    terminated = commit_attempts + aborts_acked
    aborted = failed_commits + aborts_acked
    lag_lsn = [float(s.get("lag_lsn", 0)) for s in samples]
    lag_ms = [float(s.get("lag_ms", 0.0)) for s in samples]
    return {
        "virtual_duration": round(virtual_duration, 6),
        "commit_attempts": commit_attempts,
        "commits_acked": commits_acked,
        "commits_indeterminate": commits_indeterminate,
        "aborts_acked": aborts_acked,
        "failed_commits": failed_commits,
        "throughput_commits_per_s": (
            round(commits_acked / virtual_duration, 6)
            if virtual_duration > 0
            else 0.0
        ),
        "abort_rate": (
            round(aborted / terminated, 6) if terminated else 0.0
        ),
        "busy_replies": busy,
        "timeouts": timeouts,
        "follower_reads_ok": follower_reads_ok,
        "follower_reads_rejected": follower_reads_rejected,
        "lag_lsn_p50": percentile(lag_lsn, 50),
        "lag_lsn_p95": percentile(lag_lsn, 95),
        "lag_lsn_p99": percentile(lag_lsn, 99),
        "lag_ms_p50": percentile(lag_ms, 50),
        "lag_ms_p95": percentile(lag_ms, 95),
        "lag_ms_p99": percentile(lag_ms, 99),
    }


def build_report(
    scenario: Any,
    epochs: "list[dict[str, Any]]",
    invariants: "list[Any]",
    *,
    promotion: "dict[str, Any] | None",
    deadlock: "str | None",
    samples: "list[dict[str, Any]]",
    network: Any,
    virtual_duration: float,
    partitions: "list[list[float]]",
) -> dict[str, Any]:
    epoch_sections = [_epoch_section(entry) for entry in epochs]
    invariant_section = {
        result.name: {
            "ok": result.ok,
            "skipped": result.skipped,
            "details": list(result.details),
        }
        for result in invariants
    }
    report = {
        "sim_version": SIM_REPORT_VERSION,
        "scenario": scenario.to_dict(),
        "scenario_digest": scenario.digest(),
        "seed": scenario.seed,
        "virtual_duration": round(virtual_duration, 6),
        "partitions": [list(w) for w in partitions],
        "promotion": promotion,
        "deadlock": deadlock,
        "epochs": epoch_sections,
        "invariants": invariant_section,
        "metrics": _metrics(epochs, samples, virtual_duration),
        "network": {
            "messages": network.messages,
            "bytes_sent": network.bytes_sent,
        },
    }
    report["ok"] = (
        deadlock is None
        and all(section["ok"] for section in epoch_sections)
        and all(v["ok"] for v in invariant_section.values())
    )
    return report
