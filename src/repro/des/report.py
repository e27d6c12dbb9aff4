"""The ``repro sim`` report of one executed scenario.

Each epoch's section is the builder both fronts share
(:func:`~repro.fuzz.runner.epoch_report`: outcome, counts, commits,
verdicts); what is the simulator's own is the shape around it — one
section per epoch, the cluster-scope verdicts as ``invariants``,
run-wide metrics and network totals.

Everything in a report is a pure function of the scenario and the
virtual-time execution — no wall-clock timestamps, no environment —
so the same scenario + seed produces a byte-identical JSON document,
and a report diff IS a behavior diff.
"""

from __future__ import annotations

from typing import Any

from ..fuzz.harness import Evidence
from ..fuzz.runner import Execution, epoch_report, verdicts
from ..obs.metrics import Histogram

SIM_REPORT_VERSION = 1

#: What each verdict of a sim report keeps of its result.
_VERDICT = ("ok", "skipped", "details")


def _metrics(
    sections: "list[dict[str, Any]]",
    evidences: "list[Evidence]",
    samples: "list[dict[str, Any]]",
    virtual_duration: float,
) -> dict[str, Any]:
    def total(count: str) -> int:
        return sum(section["counts"][count] for section in sections)

    commit_attempts = 0
    aborts_acked = 0
    follower_reads_ok = 0
    follower_reads_rejected = 0
    for evidence in evidences:
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
    commits_acked = total("commits_acked")
    commits_indeterminate = total("commits_indeterminate")
    resolved = commits_acked + commits_indeterminate
    failed_commits = max(0, commit_attempts - resolved)
    terminated = commit_attempts + aborts_acked
    aborted = failed_commits + aborts_acked
    lag_lsn = [float(s.get("lag_lsn", 0)) for s in samples]
    lag_ms = [float(s.get("lag_ms", 0.0)) for s in samples]
    return {
        "virtual_duration": virtual_duration,
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
        "busy_replies": total("busy"),
        "timeouts": total("timeouts"),
        "follower_reads_ok": follower_reads_ok,
        "follower_reads_rejected": follower_reads_rejected,
        **_lag_percentiles("lag_lsn", lag_lsn),
        **_lag_percentiles("lag_ms", lag_ms),
    }


def _lag_percentiles(name: str, values: "list[float]") -> dict[str, float]:
    """Nearest-rank p50/p95/p99, as floats (the report's JSON form)."""
    lag = Histogram(name, values)
    return {f"{name}_p{p}": float(lag.percentile(p)) for p in (50, 95, 99)}


def sim_report(scenario: Any, outcome: Execution) -> dict[str, Any]:
    """The ``repro sim run`` document of one executed scenario."""
    sections = [
        {"epoch": number, **epoch_report(evidence, oracles, _VERDICT)}
        for number, (evidence, oracles) in enumerate(outcome.epochs, 1)
    ]
    invariants = verdicts(outcome.cluster, _VERDICT)
    report = {
        "sim_version": SIM_REPORT_VERSION,
        "scenario": scenario.to_dict(),
        "scenario_digest": scenario.digest(),
        "seed": scenario.seed,
        "virtual_duration": outcome.virtual_duration,
        "partitions": [list(w) for w in outcome.spec.plan.partitions],
        "promotion": outcome.promotion,
        "deadlock": outcome.deadlock,
        "epochs": sections,
        "invariants": invariants,
        "metrics": _metrics(
            sections,
            [evidence for evidence, _ in outcome.epochs],
            outcome.samples,
            outcome.virtual_duration,
        ),
        "network": {
            "messages": outcome.network.messages,
            "bytes_sent": outcome.network.bytes_sent,
        },
    }
    report["ok"] = (
        outcome.deadlock is None
        and all(section["ok"] for section in sections)
        and all(v["ok"] for v in invariants.values())
    )
    return report
