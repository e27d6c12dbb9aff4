"""``repro top`` — a refreshing terminal dashboard for a live server.

Polls the ``stats`` protocol command of a running ``repro serve``
instance and redraws an ANSI dashboard: throughput and abort/BUSY
rates (derived from counter deltas between polls), queue and park
depth, per-phase latency percentiles straight from the registry
histograms, and the slowest in-flight work (the open-span list the
server returns when it runs with a live tracer).

Rendering is a pure function (:func:`render_top`) over two stats
snapshots, so tests drive it without a terminal; the ``top`` command
(:mod:`repro.cli.service`) owns the client, the poll-sleep-redraw loop
and the ANSI screen clearing.
"""

from __future__ import annotations

from typing import Any

__all__ = ["render_top"]

#: phase label → (histogram name, unit) rows of the latency table.
_PHASES = (
    ("queue wait", "server.queue.wait", "s"),
    ("park wait", "server.park.wait", "s"),
    ("validate", "validation_latency_us", "us"),
    ("wal fsync", "wal.flush.latency_ms", "ms"),
    ("request", "server.request.latency", "s"),
)


def _rate(
    now: dict[str, float],
    before: dict[str, float] | None,
    name: str,
    elapsed: float,
) -> float:
    if before is None or elapsed <= 0:
        return 0.0
    return max(0.0, now.get(name, 0.0) - before.get(name, 0.0)) / elapsed


def _delta(
    now: dict[str, float],
    before: dict[str, float] | None,
    name: str,
) -> float:
    if before is None:
        return now.get(name, 0.0)
    return max(0.0, now.get(name, 0.0) - before.get(name, 0.0))


def _fmt_latency(value: float, unit: str) -> str:
    if unit == "s":
        return f"{value * 1000.0:8.2f}ms"
    return f"{value:8.2f}{unit}"


def render_top(
    stats: dict[str, Any],
    *,
    previous: dict[str, Any] | None = None,
    elapsed: float = 0.0,
) -> str:
    """One dashboard frame from a ``stats`` response.

    ``previous``/``elapsed`` (the prior poll and the seconds between)
    turn monotonic counters into rates; with no prior frame the rate
    column shows lifetime totals instead.
    """
    snapshot = stats.get("stats", {})
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    prev_counters = (
        (previous or {}).get("stats", {}).get("counters", {})
        if previous
        else None
    )

    committed = _delta(counters, prev_counters, "server.txns.committed")
    aborted = _delta(counters, prev_counters, "server.txns.aborted")
    requests = _delta(counters, prev_counters, "server.requests")
    busy = _delta(counters, prev_counters, "server.busy")
    txn_rate = _rate(
        counters, prev_counters, "server.txns.committed", elapsed
    )
    req_rate = _rate(counters, prev_counters, "server.requests", elapsed)
    finished = committed + aborted
    abort_pct = 100.0 * aborted / finished if finished else 0.0
    admitted = requests + busy
    busy_pct = 100.0 * busy / admitted if admitted else 0.0

    queue_depth = stats.get("queue_depth", 0)
    parked = stats.get("parked", 0)
    queue_max = gauges.get("server.queue.depth", {}).get("max", 0)
    park_max = gauges.get("server.park.depth", {}).get("max", 0)
    sessions = gauges.get("server.sessions", {}).get("value", 0)

    window = f"{elapsed:.1f}s window" if previous else "lifetime"
    lines = [
        f"repro top — {window}",
        (
            f"txn/s {txn_rate:8.1f}   req/s {req_rate:8.1f}   "
            f"abort% {abort_pct:5.1f}   busy% {busy_pct:5.1f}   "
            f"sessions {sessions:g}"
        ),
        (
            f"queue {queue_depth} (max {queue_max:g})   "
            f"parked {parked} (max {park_max:g})   "
            f"commits {counters.get('server.txns.committed', 0):g}   "
            f"notif.dropped "
            f"{counters.get('server.notifications_dropped', 0):g}"
        ),
    ]
    repl = stats.get("repl")
    if repl:
        role = repl.get("role", "?")
        if role == "follower":
            lines.append(
                f"repl  role=follower   applied_lsn "
                f"{repl.get('applied_lsn', 0)}   "
                f"lag {repl.get('lag_lsn', 0)} lsn / "
                f"{repl.get('lag_ms', 0.0):g}ms   "
                f"connected {repl.get('connected', False)}"
            )
        elif role == "primary":
            followers = repl.get("followers", [])
            lines.append(
                f"repl  role=primary    durable_lsn "
                f"{repl.get('durable_lsn', 0)}   replicated_lsn "
                f"{repl.get('replicated_lsn', 0)}   "
                f"followers {len(followers)} "
                f"(sync={repl.get('sync_replicas', 0)})"
            )
    lines += [
        "",
        f"{'phase':<12}{'count':>8}{'p50':>11}{'p95':>11}{'p99':>11}"
        f"{'max':>11}",
    ]
    for label, name, unit in _PHASES:
        summary = histograms.get(name)
        if not summary or not summary.get("count"):
            continue
        lines.append(
            f"{label:<12}{summary['count']:>8}"
            + "".join(
                _fmt_latency(summary.get(key, 0.0), unit).rjust(11)
                for key in ("p50", "p95", "p99", "max")
            )
        )
    live = stats.get("live")
    if live:
        lines.append("")
        lines.append("slowest in flight (open spans, oldest first):")
        for entry in live[:10]:
            age_ms = entry.get("age", 0.0) * 1000.0
            op = entry.get("op") or "-"
            lines.append(
                f"  {entry.get('txn', '?'):<12} "
                f"{entry.get('kind', '?'):<12} op={op:<12} "
                f"age {age_ms:9.1f}ms"
            )
    elif live is not None:
        lines.append("")
        lines.append("slowest in flight: (idle)")
    return "\n".join(lines) + "\n"
