"""The named metrics: catalogue, and how each is computed from a run.

``END_TO_END`` is what a user of the system sees (measured with tracing
off, on subprocess servers); ``PER_LAYER`` is one layer each, measured
from outside — client-side timings, the public ``stats`` /
``repl_status`` / ``follower_read`` ops, files on disk — or from the
separate traced run.  A metric a workload has no such quantity for is
``None``.

``BENCHMARK.json`` lists the subset of ``END_TO_END`` that every
contract workload produces as a non-zero number and that is steady
enough for the driver's spread rule (see ``CONTRACT_END_TO_END``); the
other end-to-end metrics carry their regression bounds here, for
``compare.py``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.core.predicates import Predicate
from repro.server.protocol import decode_frame, encode_frame, parse_request

import spans as sp
from scenarios import Outcome
from stats import highest_supported, median, percentile, tail

# name -> (unit, better, regression bound as a share of the median)
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "txn_per_s": ("1/s", "higher", 0.25),
    "txn_ms_p50": ("ms", "lower", 0.25),
    "txn_ms_p99": ("ms", "lower", 0.25),
    "commit_ms_p50": ("ms", "lower", 0.25),
    "commit_ms_p99": ("ms", "lower", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
    "failed_share": ("share", "lower", 0.01),  # absolute, not relative
    "restart_s": ("s", "lower", 0.25),
    "disk_bytes_per_txn": ("bytes", "lower", 0.02),
    "server_rss_mb": ("MiB", "lower", 0.10),
    "ryw_read_ms_p50": ("ms", "lower", 0.25),
    "schedules_per_s": ("1/s", "higher", 0.10),
}

#: Workloads and end-to-end metrics of the driver contract: the five
#: server workloads, and of the metrics all five have those whose
#: run-to-run spread stayed inside the contract's 25% ceiling on the
#: seed host (the p99s and the single-round-trip latencies did not;
#: see README.md, "Noise").
CONTRACT_WORKLOADS = (
    "oltp_fresh", "oltp_sustained", "cad_coop", "cad_sharded",
    "oltp_sync_repl",
)
CONTRACT_END_TO_END = (
    "setup_s", "txn_per_s", "txn_ms_p50", "server_rss_mb",
)

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "server.ping_rtt_us_p50": ("us", "lower"),
    "server.self_us_per_req_p50": ("us", "lower"),
    "server.frame_encode_us": ("us", "lower"),
    "server.frame_decode_us": ("us", "lower"),
    "server.requests_per_txn": ("count", "lower"),
    "server.queue_wait_us_p50": ("us", "lower"),
    "server.batch_size_mean": ("count", "higher"),
    "server.busy_retries": ("count", "lower"),
    "server.parked": ("count", "lower"),
    "server.park_wait_ms_p50": ("ms", "lower"),
    "core.predicate_parse_us_per_define": ("us", "lower"),
    "protocol.define_us_p50": ("us", "lower"),
    "protocol.validate_us_p50": ("us", "lower"),
    "protocol.read_us_p50": ("us", "lower"),
    "protocol.write_us_p50": ("us", "lower"),
    "protocol.commit_us_p50": ("us", "lower"),
    "protocol.abort_us_p50": ("us", "lower"),
    "protocol.txn_us_first_decile": ("us", "lower"),
    "protocol.txn_us_last_decile": ("us", "lower"),
    "protocol.history_growth_ratio": ("ratio", "lower"),
    "protocol.aborted_attempts": ("count", "lower"),
    "protocol.cascade_aborts": ("count", "lower"),
    "protocol.validate_failed": ("count", "lower"),
    "protocol.useful_ratio": ("ratio", "higher"),
    "storage.versions_total": ("count", "lower"),
    "storage.versions_per_write": ("ratio", "lower"),
    "durability.wal_append_us_p50": ("us", "lower"),
    "durability.wal_flush_ms_p50": ("ms", "lower"),
    "durability.fsyncs": ("count", "lower"),
    "durability.records_per_fsync": ("count", "higher"),
    "durability.wal_bytes_per_txn": ("bytes", "lower"),
    "durability.checkpoints": ("count", "lower"),
    "durability.checkpoint_ms_p50": ("ms", "lower"),
    "durability.checkpoint_bytes_last": ("bytes", "lower"),
    "durability.recover_s": ("s", "lower"),
    "durability.recover_records_per_s": ("1/s", "higher"),
    "router.cross_txn_share": ("share", "lower"),
    "router.txn_ms_p50_single": ("ms", "lower"),
    "router.txn_ms_p50_cross": ("ms", "lower"),
    "router.define_ms_p50_cross": ("ms", "lower"),
    "router.commit_ms_p50_cross": ("ms", "lower"),
    "replication.commit_ack_ms_p50": ("ms", "lower"),
    "replication.follower_lag_ms_p50": ("ms", "lower"),
    "replication.follower_lag_lsn_max": ("count", "lower"),
    "replication.zero_lag_share": ("share", "higher"),
    "replication.shipped_lsn": ("count", "higher"),
    "classes.checks_run": ("count", "lower"),
    "classes.cache_hit_share": ("share", "higher"),
    "classes.schedules_per_s_exact": ("1/s", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.self_sum_error": ("ratio", "lower"),
}

#: ``classes.*`` belong to ``census_random``, which the contract leaves
#: out, so ``BENCHMARK.json`` does not list them.
CONTRACT_PER_LAYER = tuple(
    name for name in PER_LAYER if not name.startswith("classes.")
)


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------


def failed_count(outcome: Outcome) -> int:
    """Scripts that did not end committed, plus faults and failed checks."""
    tally = outcome.tally
    return (
        (tally.scripts - tally.committed)
        + tally.wire_faults
        + sum(not check.ok for check in outcome.checks)
    )


def end_to_end(
    outcome: Outcome, small_sample_tails: bool = False
) -> dict[str, float | None]:
    """The end-to-end metrics of an external run.

    ``small_sample_tails`` (smoke runs only) reports p99 even when
    fewer than ten samples lie beyond it.
    """
    tally = outcome.tally
    p99 = (
        (lambda samples: percentile(samples, 99.0) if samples else None)
        if small_sample_tails
        else (lambda samples: tail(samples, 99.0))
    )
    if outcome.workload == "census_random":
        values: dict[str, float | None] = dict.fromkeys(END_TO_END)
        values["setup_s"] = median(outcome.setup_s)
        values["schedules_per_s"] = (
            (outcome.sizes["schedules"] + outcome.sizes["exact"])
            / outcome.wall_s
        )
        values["failed_share"] = failed_count(outcome) / tally.attempts
        return values
    accesses = tally.op_ms.get("read", []) + tally.op_ms.get("write", [])
    commits = tally.op_ms.get("commit", [])
    durable = outcome.disk_bytes is not None and tally.committed
    return {
        "setup_s": median(outcome.setup_s),
        "txn_per_s": tally.committed / outcome.wall_s,
        "txn_ms_p50": median(tally.txn_ms),
        "txn_ms_p99": p99(tally.txn_ms),
        "commit_ms_p50": median(commits),
        "commit_ms_p99": p99(commits),
        "op_ms_p50": median(accesses),
        # Per attempt: an aborted-and-restarted attempt failed even if
        # its script later committed (failed_count is per script).
        "failed_share": (tally.aborted_attempts + failed_count(outcome))
        / max(1, tally.attempts),
        "restart_s": outcome.restart_s,
        "disk_bytes_per_txn": (
            outcome.disk_bytes / tally.committed if durable else None
        ),
        "server_rss_mb": median(outcome.rss_mb),
        "ryw_read_ms_p50": median(outcome.extra.get("ryw_read_ms", [])),
        "schedules_per_s": None,
    }


# ---------------------------------------------------------------------------
# Per layer, from outside
# ---------------------------------------------------------------------------


def _counter(outcome: Outcome, name: str) -> float:
    """A server counter, summed over the run's server lifetimes."""
    return sum(
        reply["stats"]["counters"].get(name, 0.0) for reply in outcome.stats
    )


def _histogram(outcome: Outcome, name: str, stat: str) -> float | None:
    """A server histogram statistic, the median over server lifetimes."""
    found = [
        reply["stats"]["histograms"][name][stat]
        for reply in outcome.stats
        if reply["stats"]["histograms"].get(name, {}).get("count")
    ]
    return median(found)


def _ms_of_tags(tally, op: str, tags: set) -> list[float]:
    return [
        ms
        for ms, tag in zip(tally.op_ms.get(op, []), tally.op_tag.get(op, []))
        if tag in tags
    ]


def outside_layers(outcome: Outcome) -> dict[str, float | None]:
    """Layer metrics of an external run (no tracing involved)."""
    tally = outcome.tally
    values: dict[str, float | None] = {}
    if outcome.workload == "census_random":
        extra = outcome.extra
        values["classes.checks_run"] = extra.get("checks_run")
        values["classes.cache_hit_share"] = extra.get("cache_hit_share")
        values["classes.schedules_per_s_exact"] = (
            outcome.sizes["exact"] / extra["exact_s"]
        )
        return values
    committed = max(1, tally.committed)
    values["server.ping_rtt_us_p50"] = median(outcome.ping_us)
    values["server.requests_per_txn"] = tally.requests / committed
    queue_wait = _histogram(outcome, "server.queue.wait", "p50")
    values["server.queue_wait_us_p50"] = (
        None if queue_wait is None else queue_wait * 1e6
    )
    values["server.batch_size_mean"] = _histogram(
        outcome, "server.batch.size", "mean"
    )
    values["server.busy_retries"] = tally.busy_retries
    values["server.parked"] = _counter(outcome, "server.parked")
    park_wait = _histogram(outcome, "server.park.wait", "p50")
    values["server.park_wait_ms_p50"] = (
        None if park_wait is None else park_wait * 1e3
    )
    values["protocol.aborted_attempts"] = tally.aborted_attempts
    values["protocol.cascade_aborts"] = outcome.extra.get(
        "cascade_notifications", 0
    )
    values["protocol.validate_failed"] = tally.validate_failed
    values["protocol.useful_ratio"] = tally.committed / max(1, tally.attempts)

    fsyncs = _counter(outcome, "wal.fsyncs")
    if fsyncs:
        values["durability.fsyncs"] = fsyncs
        values["durability.records_per_fsync"] = (
            _counter(outcome, "wal.records") / fsyncs
        )
        values["durability.wal_bytes_per_txn"] = (
            _counter(outcome, "wal.bytes") / committed
        )
        values["durability.wal_flush_ms_p50"] = _histogram(
            outcome, "wal.flush.latency_ms", "p50"
        )
        checkpoints = _counter(outcome, "durability.checkpoints")
        values["durability.checkpoints"] = checkpoints
        values["durability.checkpoint_bytes_last"] = outcome.extra.get(
            "checkpoint_bytes_last"
        )
    if "recover_s" in outcome.extra:
        values["durability.recover_s"] = outcome.extra["recover_s"]
        values["durability.recover_records_per_s"] = (
            outcome.extra["recover_records"] / outcome.extra["recover_s"]
        )
    if outcome.workload == "cad_sharded":
        cross = outcome.extra["cross_tags"]
        single = set(tally.txn_tags) - cross
        values["router.cross_txn_share"] = len(cross) / max(1, tally.scripts)
        by_tag = dict(zip(tally.txn_tags, tally.txn_ms))
        values["router.txn_ms_p50_single"] = median(
            [by_tag[tag] for tag in single]
        )
        values["router.txn_ms_p50_cross"] = median(
            [by_tag[tag] for tag in cross if tag in by_tag]
        )
        values["router.define_ms_p50_cross"] = median(
            _ms_of_tags(tally, "define", cross)
        )
        values["router.commit_ms_p50_cross"] = median(
            _ms_of_tags(tally, "commit", cross)
        )
    if outcome.workload == "oltp_sync_repl":
        extra = outcome.extra
        values["replication.follower_lag_ms_p50"] = median(extra["lag_ms"])
        values["replication.follower_lag_lsn_max"] = max(extra["lag_lsn"])
        values["replication.zero_lag_share"] = sum(
            lag == 0 for lag in extra["lag_lsn"]
        ) / len(extra["lag_lsn"])
        values["replication.shipped_lsn"] = extra["shipped_lsn"]
    return values


# ---------------------------------------------------------------------------
# Per layer, from the traced run
# ---------------------------------------------------------------------------


def _frame_loops(frames: list[tuple[dict, dict]]) -> tuple[float, float]:
    """Mean microseconds to encode / decode one of the run's frames."""
    requests = [{"id": i, **request} for i, (request, _) in enumerate(frames)]
    replies = [reply for _, reply in frames]
    started = perf_counter()
    encoded_requests = [encode_frame(frame) for frame in requests]
    encoded_replies = [encode_frame(frame) for frame in replies]
    encode_s = perf_counter() - started
    started = perf_counter()
    for line in encoded_requests:
        parse_request(decode_frame(line))
    for line in encoded_replies:
        decode_frame(line)
    decode_s = perf_counter() - started
    count = max(1, 2 * len(frames))
    return encode_s / count * 1e6, decode_s / count * 1e6


def _predicate_parse_us(frames: list[tuple[dict, dict]]) -> float | None:
    """Uncached ``Predicate.parse`` cost of one define's two constraints."""
    defines = [request for request, _ in frames if request["op"] == "define"]
    if not defines:
        return None
    started = perf_counter()
    for request in defines:
        Predicate.parse(request["input"])
        Predicate.parse(request["output"])
    return (perf_counter() - started) / len(defines) * 1e6


def traced_layers(
    traced: Outcome, untraced: Outcome
) -> tuple[dict[str, float | None], dict[str, float]]:
    """Layer metrics only the span-recording in-process run can give.

    Also returns each layer's share of the traced request time.
    """
    recorder = traced.spans
    assert recorder is not None
    spans = recorder.spans
    own = sp.self_times(spans)
    no_wal = sp.exclusive_of_wal(spans)
    values: dict[str, float | None] = {}

    def p50_us(name: str, column: list[float]) -> float | None:
        picked = [
            column[index] * 1e6
            for index, span in enumerate(spans)
            if span[sp.NAME] == name
        ]
        return median(picked)

    values["server.self_us_per_req_p50"] = median(
        [
            own[index] * 1e6
            for index, span in enumerate(spans)
            if span[sp.NAME].startswith("request")
        ]
    )
    encode_us, decode_us = _frame_loops(traced.frames)
    values["server.frame_encode_us"] = encode_us
    values["server.frame_decode_us"] = decode_us
    values["core.predicate_parse_us_per_define"] = _predicate_parse_us(
        traced.frames
    )
    for call in ("define", "validate", "read", "commit", "abort"):
        values[f"protocol.{call}_us_p50"] = p50_us(f"manager.{call}", no_wal)
    # The server's write op is begin_write + end_write on the manager.
    values["protocol.write_us_p50"] = p50_us("manager.end_write", no_wal)
    values["durability.wal_append_us_p50"] = p50_us("wal.append", own)
    checkpoint = p50_us(
        "manager.checkpoint", [span[sp.END] - span[sp.START] for span in spans]
    )
    values["durability.checkpoint_ms_p50"] = (
        None if checkpoint is None else checkpoint / 1e3
    )

    # History growth: protocol-layer self time per committed transaction
    # in the first and in the last tenth of a server lifetime's
    # requests (the median over lifetimes, for oltp_fresh's rounds).
    by_root = sp.layer_seconds_by_root(spans)

    def protocol_us_per_txn(chunk: list[int]) -> float | None:
        commits = sum(
            spans[index][sp.NAME] == "request.commit" for index in chunk
        )
        if not commits:
            return None
        protocol_s = sum(by_root[index]["protocol"] for index in chunk)
        return protocol_s / commits * 1e6

    starts = traced.extra["lifetime_starts"] + [len(spans)]
    firsts, lasts = [], []
    for begin, end in zip(starts, starts[1:]):
        roots = [index for index in by_root if begin <= index < end]
        tenth = max(1, len(roots) // 10)
        firsts.append(protocol_us_per_txn(roots[:tenth]))
        lasts.append(protocol_us_per_txn(roots[-tenth:]))
    first = median([value for value in firsts if value])
    last = median([value for value in lasts if value])
    values["protocol.txn_us_first_decile"] = first
    values["protocol.txn_us_last_decile"] = last
    values["protocol.history_growth_ratio"] = (
        last / first if first and last else None
    )

    values["storage.versions_total"] = traced.versions_total
    writes = len(traced.tally.op_ms.get("write", []))
    values["storage.versions_per_write"] = (
        traced.versions_total / writes if writes else None
    )
    if traced.workload == "oltp_sync_repl":
        # The ack wait: a commit request's own time once the manager
        # calls under it are taken out.
        values["replication.commit_ack_ms_p50"] = median(
            [
                own[index] * 1e3
                for index, span in enumerate(spans)
                if span[sp.NAME] == "request.commit"
            ]
        )

    layers = sp.layer_self_seconds(spans)
    requested_s = traced.tally.awaited_s
    values["trace.spans"] = len(spans)
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    values["trace.self_sum_error"] = abs(
        sum(layers.values()) - requested_s
    ) / requested_s
    shares = {
        layer: seconds / sum(layers.values())
        for layer, seconds in layers.items()
    }
    return values, shares


# ---------------------------------------------------------------------------
# Presentation
# ---------------------------------------------------------------------------


def fill(values: dict[str, Any], catalogue) -> dict[str, Any]:
    """Every catalogue metric by name, ``None`` where the run has none."""
    return {name: values.get(name) for name in catalogue}


def sample_counts(outcome: Outcome) -> dict[str, Any]:
    """Sample counts behind the timing metrics (the reporting rule)."""
    tally = outcome.tally
    return {
        "txn_ms": len(tally.txn_ms),
        "commit_ms": len(tally.op_ms.get("commit", [])),
        "op_ms": len(tally.op_ms.get("read", []))
        + len(tally.op_ms.get("write", [])),
        "highest_percentile_txn_ms_supports": highest_supported(
            len(tally.txn_ms)
        ),
    }
