"""The one executor over the harness, and the report pieces it feeds.

``repro fuzz`` and ``repro sim`` are two callers of :func:`execute`.
A :class:`RunSpec` is a :class:`FuzzPlan` plus the run's surroundings,
all of them data; a fuzz run (:func:`execute_plan`) is the case with
no network and one epoch, a cluster scenario (:mod:`repro.des`) adds a
network, follower reads and, when it kills the primary, a promotion
and a second epoch.  A fired :class:`SimulatedCrash` or the kill stops
the dispatcher the way SIGKILL would; each epoch is then collected
into :class:`Evidence` and judged by
:func:`~repro.fuzz.oracles.run_oracles`, and the whole run once more,
as a :class:`History`, by the cluster-scope rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable

from ..durability.crashpoints import CrashPoints
from ..obs.live import LiveTracer, SpanRing
from ..obs.metrics import MetricsRegistry
from ..replication import Promoter, promote_in_place
from ..server.server import ServerConfig
from ..sim.clock import VirtualClock
from .harness import (
    Epoch,
    Evidence,
    Follower,
    FollowerReads,
    History,
    NodeEvidence,
    ReplicaSet,
    VirtualRun,
    build_stack,
    fuzz_database,
    virtual_run,
)
from .oracles import CLUSTER, OracleResult, run_oracles
from .plan import ClientPlan, FuzzPlan

__all__ = [
    "Evidence",
    "Execution",
    "NodeEvidence",
    "RunResult",
    "RunSpec",
    "execute",
    "execute_plan",
    "fuzz_database",
]

FUZZ_REPORT_VERSION = 1

#: Span ring capacity for the run's live tracer.  Far above what any
#: bounded plan emits, so a non-zero dropped count is itself evidence
#: (and the metrics oracle flags it).
_SPAN_RING_CAPACITY = 1 << 16


@dataclass
class RunSpec:
    """One run: the first epoch's plan and everything around it."""

    plan: FuzzPlan
    #: Builds the modeled network on the run's clock (``None`` =
    #: in-process hops, which add no suspension point).
    network: "Callable[[VirtualClock], Any] | None" = None
    #: Kill the primary dispatcher at this virtual time.
    kill_at: "float | None" = None
    #: Client scripts the promoted follower serves after a kill
    #: (``None`` = a crashed primary ends the run).
    successor: "list[ClientPlan] | None" = None
    #: Followers are ``{follower_name}{index}``.
    follower_name: str = "replica"
    #: Abort reason of a client's clean-up abort (lands in the WAL).
    give_up: str = "fuzz client gave up"
    #: Record every span (primary and followers) for the metrics oracle.
    traced: bool = True
    #: Followers serve scripted ``follower_read`` ops under these bounds.
    reads: "FollowerReads | None" = None
    #: Follower pumps exit past this virtual time.
    horizon: float = 120.0


def execute(
    spec: RunSpec, workdir: "Path | str | None" = None
) -> "Execution":
    """Run ``spec`` to completion and evaluate every applicable oracle."""
    spec.plan.validate()  # before anything is acquired
    with virtual_run(workdir, prefix="repro-run-") as run:
        return Execution(spec, run).finish()


class Execution:
    """One run of a :class:`RunSpec`; once finished, its outcome:
    ``epochs`` (``(evidence, verdicts)`` per primary epoch), the
    ``cluster`` verdicts on the whole history, the ``promotion``, the
    ``deadlock``, the follower-read ``samples``, the ``network`` and
    the ``virtual_duration``."""

    def __init__(self, spec: RunSpec, run: VirtualRun) -> None:
        self.spec = spec
        self.run = run
        self.network = spec.network(run.clock) if spec.network else None
        self.tracer: "LiveTracer | None" = None
        if spec.traced:
            ring = SpanRing(_SPAN_RING_CAPACITY)
            self.span_feed = ring.subscribe()
            self.tracer = LiveTracer(ring, clock=run.clock)
        self.crash_points = CrashPoints() if spec.plan.durable else None
        self.followers: list[Follower] = []
        self.samples: list[dict[str, Any]] = []
        self.promotion: "dict[str, Any] | None" = None
        #: The epoch now serving, until it is judged.
        self.epoch: "Epoch | None" = None
        self.epochs: "list[tuple[Evidence, list[OracleResult]]]" = []
        self.cluster: list[OracleResult] = []
        #: ``(spans, dropped, open)`` once recording stopped.
        self.recorded: "tuple[Any, int, Any] | None" = None
        self.deadlock: "str | None" = None
        self.virtual_duration = 0.0

    def finish(self) -> "Execution":
        self.run.run(self._serve())
        self._stop_recording()
        if self.epoch is not None:
            self._judge(self.epoch)
        for follower in self.followers:
            follower.applier.close()
        history = History([e for e, _ in self.epochs], self.network)
        self.cluster = run_oracles(history, scope=CLUSTER)
        self.deadlock = self.run.deadlock
        self.virtual_duration = round(self.run.clock.now, 6)
        return self

    # -- epochs ------------------------------------------------------------

    def _start(
        self,
        plan: FuzzPlan,
        wal_root: Path,
        primary: str,
        registry: MetricsRegistry,
        followers: "list[Follower]",
        manager: Any = None,
    ) -> Epoch:
        """One primary stack + its replica set, as a harness epoch.

        Each epoch has its own ``registry``: a promoted primary's
        counters never saw the old one's traffic.
        """
        stack = build_stack(
            plan,
            wal_root,
            self.run.clock,
            registry,
            tracer=self.tracer,
            crash_points=self.crash_points,
            manager=manager,
        )
        if manager is None and plan.crash_point is not None:
            # Armed *after* open(): hit counts start at "serving".
            self.crash_points.arm(plan.crash_point, plan.crash_at_hit)
        self.epoch = Epoch(
            plan,
            stack,
            self.run.clock,
            give_up=self.spec.give_up,
            replicas=(
                ReplicaSet(
                    stack.hub,
                    followers,
                    self.run.clock,
                    plan.partitions,
                    horizon=self.spec.horizon,
                    net=self.network,
                    primary=primary,
                    samples=self.samples,
                )
                if stack.hub is not None
                else None
            ),
            net=self.network,
            # Events name their node only behind a network, where
            # there are nodes to tell apart.
            primary=primary if self.network is not None else None,
            reads=self.spec.reads,
        )
        return self.epoch

    def _follower(self, index: int) -> Follower:
        name = f"{self.spec.follower_name}{index}"
        plan = self.spec.plan
        return Follower(
            index,
            name,
            self.run.base / name,
            self.run.clock,
            tracer=self.tracer,
            # Its own registry: follower-side counters must not leak
            # into the primary's metrics evidence.
            registry=MetricsRegistry(),
            read_config=(
                ServerConfig(
                    # Large queue: a follower BUSY would desynchronise
                    # the primary's transcript-vs-counters oracle.
                    queue_size=4096,
                    request_timeout=plan.request_timeout,
                    drain_grace=plan.drain_grace,
                    strict=plan.strict,
                )
                if self.spec.reads is not None
                else None
            ),
        )

    async def _serve(self) -> None:
        spec = self.spec
        self.followers = [self._follower(i) for i in range(spec.plan.replicas)]
        epoch = self._start(
            spec.plan,
            self.run.base / "primary",
            "primary",
            MetricsRegistry(),
            self.followers,
        )
        for follower in self.followers:
            follower.start()
        await epoch.run(kill_at=spec.kill_at)
        if epoch.crash is not None and spec.successor is not None:
            # Judged now: the next epoch rewrites the follower dirs.
            self._judge(epoch)
            epoch = await self._promote(spec.successor)
            await epoch.run()
        if epoch.crash is None:
            self._stop_recording()
            await self._retire(epoch)

    async def _promote(self, clients: "list[ClientPlan]") -> Epoch:
        """Elect, promote in place, re-attach the rest: the next epoch.

        The election is out-of-band over the FULL follower set (the
        operator console reaches every node; partition windows model
        the replication links): electing among a reachable minority
        could pick a node missing acked commits.
        """
        choice = Promoter.choose(
            [
                dict(f.applier.status(), node=f.name, index=f.index)
                for f in self.followers
            ]
        )
        winner = self.followers[choice["index"]]
        await winner.stop()  # drains its read traffic
        winner.applier.close()
        plan = self.spec.plan
        registry = MetricsRegistry()
        manager, recovery = promote_in_place(
            winner.dir,
            flush_interval=plan.flush_interval,
            checkpoint_every=plan.checkpoint_every,
            retain=99,
            registry=registry,
            tracer=self.tracer,
            strict=plan.strict,
        )
        self.promotion = {
            "winner": winner.name,
            "promoted_from_lsn": choice["applied_lsn"],
            "at": round(self.run.clock.now, 6),
            "baseline_committed": list(recovery.committed),
            "verified": recovery.verified,
        }
        remaining = [f for f in self.followers if f is not winner]
        epoch = self._start(
            replace(
                plan,
                clients=clients,
                replicas=len(remaining),
                sync_replicas=min(plan.sync_replicas, len(remaining)),
            ),
            winner.dir,
            winner.name,
            registry,
            remaining,
            manager=manager,
        )
        epoch.transcript.emit(
            "promotion",
            winner=winner.name,
            applied_lsn=choice["applied_lsn"],
        )
        return epoch

    async def _retire(self, epoch: Epoch) -> None:
        """Clean end: heal, drain backlogs so replica recoveries see the
        whole history (a crash keeps what each held), retire followers."""
        if self.network is not None:
            self.network.heal()
        if epoch.replicas is None:
            return
        await epoch.replicas.catch_up()
        epoch.replicas.hub.close()
        for follower in epoch.replicas.followers:
            await follower.stop()

    def _stop_recording(self) -> None:
        """Freeze the span set and disarm crash points (once)."""
        if self.recorded is not None:
            return
        self.recorded = (None, 0, None)
        if self.tracer is not None:
            spans, dropped = self.span_feed.poll()
            self.recorded = (spans, dropped, self.tracer.open_spans())
        if self.crash_points is not None:
            self.crash_points.disarm()

    def _judge(self, epoch: Epoch) -> None:
        """Collect the serving epoch's evidence and run its oracles."""
        self.epoch = None
        evidence = epoch.collect(self.run.base / "survivor", self.run.deadlock)
        if self.promotion is not None:
            evidence.baseline_committed = self.promotion["baseline_committed"]
        if self.recorded is not None:
            evidence.spans, evidence.spans_dropped, evidence.open_spans = (
                self.recorded
            )
        if epoch.replicas is not None:
            epoch.replicas.hub.close()
        self.epochs.append((evidence, run_oracles(evidence)))


# ---------------------------------------------------------------------------
# The report pieces both fronts share, and the fuzz front
# ---------------------------------------------------------------------------


def verdicts(
    results: "list[OracleResult]", keys: "tuple[str, ...]"
) -> dict[str, dict[str, Any]]:
    """``{name: verdict}``, each verdict keeping ``keys`` of the result."""
    return {
        result.name: {
            key: value for key, value in asdict(result).items() if key in keys
        }
        for result in results
    }


def failed(*verdict_maps: "dict[str, dict[str, Any]]") -> list[str]:
    """Sorted names of the failed verdicts in ``verdict_maps``."""
    return sorted(
        name
        for verdict_map in verdict_maps
        for name, verdict in verdict_map.items()
        if not verdict["ok"]
    )


def epoch_report(
    evidence: Evidence,
    oracles: "list[OracleResult]",
    keys: "tuple[str, ...]",
) -> dict[str, Any]:
    """What both reports say about one primary epoch: its outcome,
    counts, commits and verdicts (each keeping ``keys``)."""
    events = evidence.events
    replies = [e for e in events if e["kind"] == "reply"]
    recovered = [n for n in evidence.nodes if n.recovery is not None]
    section = {
        "crashed": evidence.crashed,
        "crash": evidence.crash_info,
        "counts": {
            "events": len(events),
            "requests": len(evidence.requests),
            "replies": len(replies),
            "busy": sum(1 for e in events if e["kind"] == "busy"),
            "timeouts": sum(1 for e in replies if e.get("code") == "TIMEOUT"),
            "commits_acked": len(evidence.acked_committed),
            "commits_indeterminate": len(evidence.unacked_committed),
        },
        "acked_committed": list(evidence.acked_committed),
        "indeterminate_committed": evidence.unacked_committed,
        # Single-stack layouts only; a sharded report lists shards.
        "recovered_committed": (
            list(recovered[0].recovery.committed)
            if recovered and len(evidence.nodes) == 1
            else None
        ),
        "recovery_error": evidence.recovery_error,
        "drain_summary": evidence.drain_summary,
        "replicas": evidence.replicas,
        "oracles": verdicts(oracles, keys),
        "schedule": events,
    }
    section["ok"] = all(v["ok"] for v in section["oracles"].values())
    return section


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
    """Run ``plan`` as a fuzz run: no network, one epoch."""
    outcome = execute(RunSpec(plan), workdir)
    ((evidence, oracles),) = outcome.epochs
    report = epoch_report(evidence, oracles, ("ok", "details"))
    report["counts"].update(
        follower_samples=len(evidence.follower_samples or ()),
        spans=len(evidence.spans or ()),
        spans_dropped=evidence.spans_dropped,
    )
    sharded = plan.shards > 1
    recovered = [n for n in evidence.nodes if n.recovery is not None]
    report.update(
        fuzz_version=FUZZ_REPORT_VERSION,
        seed=plan.seed,
        plan_digest=plan.digest(),
        op_count=plan.op_count,
        config={
            key: getattr(plan, key)
            for key in (
                "strict", "durable", "queue_size", "request_timeout",
                "checkpoint_every", "crash_point", "crash_at_hit",
                "replicas", "sync_replicas", "shards",
            )
        }
        | {
            "clients": len(plan.clients),
            "partitions": [list(w) for w in plan.partitions],
        },
        names=dict(sorted(evidence.names.items())),
        shard_recovered_committed=(
            {str(n.index): list(n.recovery.committed) for n in recovered}
            if recovered and sharded
            else None
        ),
        shard_resolutions=(
            [dict(entry) for entry in evidence.resolutions or []]
            if recovered and sharded
            else None
        ),
        deadlock=evidence.deadlock,
        virtual_duration=outcome.virtual_duration,
    )
    return RunResult(plan=plan, report=report, evidence=evidence)
