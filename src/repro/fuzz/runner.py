"""Execute one :class:`FuzzPlan` deterministically, collecting evidence.

A fuzz run is one :class:`~repro.fuzz.harness.Epoch` of the shared
harness on a stack without a network: the real server, a
:class:`DurableTransactionManager` over a scratch WAL directory with
crash points armed (durable plans), in-run followers (replicated
plans), and a :class:`LiveTracer` whose span ids and timestamps both
come from deterministic sources — so the collected span set is as
replayable as the transcript, and the metrics oracle checks its tree
structure after the drain.

A fired :class:`SimulatedCrash` kills the dispatcher the way SIGKILL
would; the harness then recovers a survivor copy of the WAL and hands
both the pre-crash transcript and the recovered state to the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..durability.crashpoints import CrashPoints
from ..errors import ReproError
from ..obs.live import LiveTracer, SpanRing
from ..obs.metrics import MetricsRegistry
from ..sim.clock import VirtualClock
from .harness import (
    Epoch,
    Evidence,
    Follower,
    NodeEvidence,
    ReplicaSet,
    build_stack,
    fuzz_database,
    virtual_run,
)
from .plan import FuzzPlan

__all__ = [
    "Evidence",
    "NodeEvidence",
    "RunResult",
    "execute_plan",
    "fuzz_database",
]

FUZZ_REPORT_VERSION = 1

#: Span ring capacity for the run's live tracer.  Far above what any
#: bounded plan emits, so a non-zero dropped count is itself evidence
#: (and the metrics oracle flags it).
_SPAN_RING_CAPACITY = 1 << 16

#: Follower pumps exit past this virtual time (see ``ReplicaSet``).
_HORIZON = 120.0


@dataclass
class RunResult:
    """One executed plan: the JSON report plus raw evidence."""

    plan: FuzzPlan
    report: dict[str, Any]
    evidence: Evidence

    @property
    def ok(self) -> bool:
        return bool(self.report["ok"])

    @property
    def failed_oracles(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, verdict in self.report["oracles"].items()
            if not verdict["ok"]
        )


def execute_plan(
    plan: FuzzPlan, workdir: "Path | str | None" = None
) -> RunResult:
    """Run ``plan`` to completion and evaluate every oracle."""
    from .oracles import run_oracles

    if plan.shards > 1 and plan.replicas:
        raise ReproError(
            "sharded plans cannot ship a WAL (replicas must be 0)"
        )
    with virtual_run(workdir, prefix="repro-fuzz-") as run:
        clock = run.clock
        ring = SpanRing(_SPAN_RING_CAPACITY)
        span_feed = ring.subscribe()
        tracer = LiveTracer(ring, clock=clock)
        crash_points = CrashPoints() if plan.durable else None
        stack = build_stack(
            plan,
            run.base / "wal",
            clock,
            MetricsRegistry(),
            tracer=tracer,
            crash_points=crash_points,
            sync_replicas=(
                plan.sync_replicas
                if plan.durable and plan.replicas > 0
                else None
            ),
        )
        if crash_points is not None and plan.crash_point is not None:
            # Armed *after* open(): hit counts start at "serving".
            crash_points.arm(plan.crash_point, plan.crash_at_hit)
        replicas: "ReplicaSet | None" = None
        if stack.hub is not None:
            replicas = ReplicaSet(
                stack.hub,
                [
                    Follower(
                        index,
                        f"replica{index}",
                        run.base / f"replica{index}",
                        clock,
                        tracer=tracer,
                    )
                    for index in range(plan.replicas)
                ],
                clock,
                plan.partitions,
                horizon=_HORIZON,
            )
        epoch = Epoch(
            plan,
            stack,
            clock,
            give_up="fuzz client gave up",
            replicas=replicas,
        )
        run.run(epoch.run())
        spans, spans_dropped = span_feed.poll()
        open_spans = tracer.open_spans()
        if crash_points is not None:
            crash_points.disarm()
        if (
            replicas is not None
            and epoch.crash is None
            and run.deadlock is None
        ):
            # Clean run: partitions heal and the backlog drains, so
            # replica recoveries see the whole history.  A crashed run
            # keeps exactly what each replica held.
            run.run(replicas.catch_up())
        evidence = epoch.collect(run.base / "survivor", run.deadlock)
        evidence.spans, evidence.spans_dropped = spans, spans_dropped
        evidence.open_spans = open_spans
        if replicas is not None:
            replicas.hub.close()
            for follower in replicas.followers:
                follower.applier.close()
        oracles = run_oracles(evidence)
        report = _build_report(plan, evidence, oracles, clock)
        return RunResult(plan=plan, report=report, evidence=evidence)


def _build_report(
    plan: FuzzPlan,
    evidence: Evidence,
    oracles: "list[Any]",
    clock: VirtualClock,
) -> dict[str, Any]:
    replies = [e for e in evidence.events if e["kind"] == "reply"]
    # The report keeps one key family per layout: ``recovered_committed``
    # for the single stack, ``shard_*`` for a sharded one.
    sharded = plan.shards > 1
    recovered = [n for n in evidence.nodes if n.recovery is not None]
    report = {
        "fuzz_version": FUZZ_REPORT_VERSION,
        "seed": plan.seed,
        "plan_digest": plan.digest(),
        "op_count": plan.op_count,
        "config": {
            "strict": plan.strict,
            "durable": plan.durable,
            "queue_size": plan.queue_size,
            "request_timeout": plan.request_timeout,
            "checkpoint_every": plan.checkpoint_every,
            "crash_point": plan.crash_point,
            "crash_at_hit": plan.crash_at_hit,
            "clients": len(plan.clients),
            "replicas": plan.replicas,
            "sync_replicas": plan.sync_replicas,
            "partitions": [list(w) for w in plan.partitions],
            "shards": plan.shards,
        },
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
            "follower_samples": (
                len(evidence.follower_samples)
                if evidence.follower_samples is not None
                else 0
            ),
            "spans": (
                len(evidence.spans)
                if evidence.spans is not None
                else 0
            ),
            "spans_dropped": evidence.spans_dropped,
        },
        "names": dict(sorted(evidence.names.items())),
        "acked_committed": list(evidence.acked_committed),
        "indeterminate_committed": list(
            evidence.indeterminate_committed
        ),
        "replicas": evidence.replicas,
        "recovered_committed": (
            list(recovered[0].recovery.committed)
            if recovered and not sharded
            else None
        ),
        "shard_recovered_committed": (
            {
                str(node.index): list(node.recovery.committed)
                for node in recovered
            }
            if recovered and sharded
            else None
        ),
        "shard_resolutions": (
            [dict(entry) for entry in evidence.resolutions or []]
            if recovered and sharded
            else None
        ),
        "crashed": evidence.crashed,
        "crash": evidence.crash_info,
        "deadlock": evidence.deadlock,
        "recovery_error": evidence.recovery_error,
        "drain_summary": evidence.drain_summary,
        "virtual_duration": round(clock.now, 6),
        "oracles": {
            result.name: {
                "ok": result.ok,
                "details": list(result.details),
            }
            for result in oracles
        },
        "schedule": evidence.events,
    }
    report["ok"] = all(v["ok"] for v in report["oracles"].values())
    return report
