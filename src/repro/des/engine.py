"""The multi-node discrete-event cluster simulator.

One :class:`ClusterSim` runs N nodes of the *actual* protocol stack —
a primary :class:`~repro.server.server.TransactionServer` over a
:class:`~repro.durability.manager.DurableTransactionManager`, follower
nodes each owning a :class:`~repro.replication.follower.FollowerApplier`
plus a dispatcher serving ``follower_read``, and scripted client nodes
— on the deterministic harness the fuzzer runs on
(:mod:`repro.fuzz.harness`): each primary epoch is literally a
:class:`~repro.fuzz.plan.FuzzPlan` executed by one
:class:`~repro.fuzz.harness.Epoch`, on a stack whose every hop crosses
the modeled :class:`~repro.des.network.Network` (per-link latency,
jitter, bandwidth, partition windows, slow nodes).

What is the simulator's own lives here: the network, the virtual-time
primary kill, election and promotion, and the epoch-aware evidence
views.  Crash scenarios add a second epoch: at ``crash_primary_at`` the
primary dispatcher is killed the way SIGKILL would, a survivor copy of
its WAL preserves what stable storage kept, the healed follower set is
elected via :class:`~repro.replication.promoter.Promoter` and the
winner promoted in place through the stock ``recover --verify`` gate,
and the remaining followers re-attach to the new primary's hub.  Each
epoch's transcript becomes fuzz-shaped :class:`Evidence` and the fuzz
oracles transfer per epoch (see :mod:`repro.des.invariants` for which
and why), plus cluster-level invariants over the whole history.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any

from ..fuzz.harness import (
    Epoch,
    Follower,
    FollowerReads,
    ReplicaSet,
    VirtualRun,
    build_stack,
    virtual_run,
)
from ..fuzz.oracles import run_oracles
from ..fuzz.plan import FuzzPlan
from ..obs.metrics import MetricsRegistry
from ..replication import Promoter, promote_in_place
from ..server.server import ServerConfig
from .invariants import EPOCH2_ORACLES, cluster_invariants
from .network import Network
from .report import build_report
from .scenarios import Scenario
from .workload import build_clients, build_plan, expand_partitions


class ClusterSim:
    """Execute one :class:`Scenario` to completion, with oracles."""

    def __init__(
        self,
        scenario: Scenario,
        workdir: "Path | str | None" = None,
    ) -> None:
        self.scenario = scenario
        self._workdir = workdir
        self.partitions = expand_partitions(scenario)
        self.samples: list[dict[str, Any]] = []
        self.promotion: "dict[str, Any] | None" = None
        # Set during the run.
        self._net: "Network | None" = None
        self._reads: "FollowerReads | None" = None
        #: The epoch now serving, until its evidence is collected.
        self._epoch: "Epoch | None" = None
        #: ``{"epoch", "evidence", "oracles"}`` per judged epoch.
        self._judged: list[dict[str, Any]] = []
        self._baseline_committed: "list[str] | None" = None

    def run(self) -> dict[str, Any]:
        """Execute the scenario; returns the JSON report."""
        # Expanded before anything is acquired: a scenario the
        # workload generator rejects leaves no workdir and no loop.
        plan1 = self._plan("e1", self.scenario.followers)
        with virtual_run(self._workdir, prefix="repro-des-") as run:
            self._net = Network(
                run.clock,
                seed=self.scenario.seed,
                latency=self.scenario.latency,
                jitter=self.scenario.jitter,
                bandwidth=self.scenario.bandwidth,
                slow_nodes=dict(self.scenario.slow_nodes),
                partitions=[
                    (f"follower{int(index)}", start, end)
                    for index, start, end in self.partitions
                ],
            )
            run.run(self._run_cluster(run, plan1))
            return self._finalize(run)

    # -- epochs --------------------------------------------------------------

    def _plan(self, phase: str, followers: int) -> FuzzPlan:
        """One epoch as a :class:`FuzzPlan` over ``followers`` nodes."""
        scenario = self.scenario
        return build_plan(
            scenario,
            clients=build_clients(
                scenario,
                phase=phase,
                txns_per_client=(
                    None
                    if phase == "e1"
                    else scenario.post_crash_txns_per_client
                ),
            ),
            replicas=followers,
            sync_replicas=min(scenario.sync_replicas, followers),
            partitions=self.partitions,
        )

    def _start_epoch(
        self,
        run: VirtualRun,
        plan: FuzzPlan,
        wal_root: Path,
        primary: str,
        followers: "list[Follower]",
        registry: MetricsRegistry,
        manager: Any = None,
    ) -> Epoch:
        """One primary stack + its replica set, as a harness epoch.

        Each epoch has its own ``registry``: the new primary's
        counters never saw the old one's traffic.
        """
        stack = build_stack(
            plan,
            wal_root,
            run.clock,
            registry,
            manager=manager,
            sync_replicas=plan.sync_replicas,
        )
        assert stack.hub is not None
        self._epoch = Epoch(
            plan,
            stack,
            run.clock,
            give_up="sim client gave up",
            replicas=ReplicaSet(
                stack.hub,
                followers,
                run.clock,
                self.partitions,
                horizon=self.scenario.horizon,
                net=self._net,
                primary=primary,
                samples=self.samples,
            ),
            net=self._net,
            primary=primary,
            reads=self._reads,
        )
        return self._epoch

    async def _retire(self, epoch: Epoch) -> None:
        """Clean epoch end: heal, drain backlogs, retire followers."""
        assert self._net is not None and epoch.replicas is not None
        self._net.heal()
        await epoch.replicas.catch_up()
        epoch.replicas.hub.close()
        for follower in epoch.replicas.followers:
            await follower.stop()

    def _judge(self, run: VirtualRun) -> None:
        """Collect the serving epoch's evidence and run its oracles."""
        epoch = self._epoch
        assert epoch is not None and epoch.replicas is not None
        self._epoch = None
        number = len(self._judged) + 1
        evidence = epoch.collect(run.base / "survivor", run.deadlock)
        epoch.replicas.hub.close()
        if number == 1:
            oracles = run_oracles(evidence)
        else:
            # The oracles were written for a single-epoch run; after a
            # promotion the epoch-1 history is *legitimately committed
            # but never acked in this epoch*, which is exactly what
            # the ``indeterminate_committed`` category accepts.  So the
            # judged view folds the promotion baseline into the
            # indeterminate set, while the metrics oracle (whose
            # counters are epoch-2-only) keeps the epoch's own list.
            # ``write_multiplicity`` does not transfer at all: acked
            # writes of transactions that never committed may be
            # legitimately absent from the winner's log (they were in
            # flight on the dead primary) — epoch 1 already checked it
            # against the survivor copy, and the cluster-level
            # ``no_acked_write_lost`` invariant covers committed
            # writes.
            baseline = self._baseline_committed
            assert baseline is not None
            own = evidence.indeterminate_committed
            evidence.indeterminate_committed = list(baseline) + [
                txn for txn in own if txn not in baseline
            ]
            oracles = run_oracles(evidence, names=EPOCH2_ORACLES)
            oracles.extend(
                run_oracles(
                    replace(evidence, indeterminate_committed=own),
                    names=["metrics_consistent"],
                )
            )
        self._judged.append(
            {"epoch": number, "evidence": evidence, "oracles": oracles}
        )

    # -- the run ----------------------------------------------------------

    async def _run_cluster(self, run: VirtualRun, plan1: FuzzPlan) -> None:
        scenario = self.scenario
        followers = [
            Follower(
                index,
                f"follower{index}",
                run.base / f"follower{index}",
                run.clock,
                # Own registry and no tracer: follower-side counters
                # and spans must not leak into the primary's metrics
                # evidence.
                registry=MetricsRegistry(),
                read_config=ServerConfig(
                    # Large queue: a follower BUSY would desynchronise
                    # the primary's transcript-vs-counters oracle.
                    queue_size=4096,
                    request_timeout=scenario.request_timeout,
                    drain_grace=scenario.drain_grace,
                    strict=scenario.strict,
                ),
            )
            for index in range(scenario.followers)
        ]
        self._reads = FollowerReads(
            {follower.index: follower for follower in followers},
            max_lag_lsn=scenario.max_lag_lsn,
            read_your_writes=scenario.read_your_writes,
        )
        epoch1 = self._start_epoch(
            run,
            plan1,
            run.base / "primary",
            "primary",
            followers,
            MetricsRegistry(),
        )
        for follower in followers:
            follower.start()
        await epoch1.run(kill_at=scenario.crash_primary_at)
        if epoch1.crash is None:
            await self._retire(epoch1)
            return
        # -- epoch boundary: survivor copy, election, promotion --------
        # Judged now: epoch 2 is about to rewrite the follower dirs.
        self._judge(run)
        # Election is out-of-band over the FULL follower set (the
        # operator console reaches every node; partition windows model
        # the replication links): electing among a reachable minority
        # could pick a node missing acked commits.
        choice = Promoter.choose(
            [
                dict(f.applier.status(), node=f.name, index=f.index)
                for f in followers
            ]
        )
        winner = self._reads.followers[choice["index"]]
        await winner.stop()  # drains its read traffic, closes applier
        registry2 = MetricsRegistry()
        manager2, recovery2 = promote_in_place(
            winner.dir,
            flush_interval=scenario.flush_interval,
            checkpoint_every=scenario.checkpoint_every,
            retain=99,
            registry=registry2,
            strict=scenario.strict,
        )
        self._baseline_committed = list(recovery2.committed)
        self.promotion = {
            "winner": winner.name,
            "promoted_from_lsn": choice["applied_lsn"],
            "at": round(run.clock.now, 6),
            "baseline_committed": list(recovery2.committed),
            "verified": recovery2.verified,
        }
        # -- epoch 2: the promoted winner serves; the rest re-attach ----
        remaining = [f for f in followers if f is not winner]
        epoch2 = self._start_epoch(
            run,
            self._plan("e2", len(remaining)),
            winner.dir,
            winner.name,
            remaining,
            registry2,
            manager=manager2,
        )
        epoch2.transcript.emit(
            "promotion",
            winner=winner.name,
            applied_lsn=choice["applied_lsn"],
        )
        await epoch2.run()
        await self._retire(epoch2)

    def _finalize(self, run: VirtualRun) -> dict[str, Any]:
        if self._epoch is not None:
            epoch = self._epoch
            self._judge(run)
            if run.deadlock is not None:
                # _retire never ran: release the follower WAL fds.
                for follower in epoch.replicas.followers:
                    follower.applier.close()
        final = self._judged[-1]["evidence"].nodes[0]
        invariants = cluster_invariants(
            [entry["evidence"] for entry in self._judged],
            final_records=final.records,
            final_recovery=final.recovery,
            baseline_committed=self._baseline_committed,
        )
        assert self._net is not None
        return build_report(
            self.scenario,
            self._judged,
            invariants,
            promotion=self.promotion,
            deadlock=run.deadlock,
            samples=self.samples,
            network=self._net,
            virtual_duration=round(run.clock.now, 6),
            partitions=self.partitions,
        )


def run_scenario(
    scenario: Scenario, workdir: "Path | str | None" = None
) -> dict[str, Any]:
    """Convenience: one scenario, one report."""
    return ClusterSim(scenario, workdir=workdir).run()
