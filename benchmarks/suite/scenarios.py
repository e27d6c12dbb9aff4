"""The six workloads: deployment, driving, correctness checks.

Every server workload runs the same *body* (which connections run
which scripts) against one of two deployments:

* :func:`run_external` — ``python -m repro serve`` subprocesses, two
  connections; this is what the end-to-end metrics are measured on;
* :func:`run_inprocess` — a ``TransactionServer`` inside the driver's
  event loop, one connection, optionally with the span-recording
  manager of :mod:`spans`; this is the traced run and its untraced
  twin (their wall-clock ratio is the tracing overhead).

The result of a run is an :class:`Outcome`: raw samples and counters.
:mod:`metrics` turns outcomes into the named metrics.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.analysis.census import schedule_fingerprint
from repro.classes import classify, containment_violations
from repro.durability import (
    DurableTransactionManager,
    recover,
    recover_sharded,
    shard_wal_dir,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.protocol.scheduler import TransactionManager
from repro.schedules.generator import random_schedule
from repro.server import ServerConfig, TransactionServer, build_workload
from repro.server.errors import StaleRead
from repro.storage.database import Database

import workloads as wl
from driver import Conn, ScriptRun, Tally, abort_notifications, run_scripts
from servers import Fleet, ServerProc, run_recover_verify, tree_bytes
from spans import SpanRecorder, attach, traced_manager_class

PING_PROBES = 200
#: ``cad_coop``: chance that the short-transaction connection takes the
#: next turn while both connections have work (it has ~1.7x the steps).
SHORT_TURN_SHARE = 0.35


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """Raw measurements of one run of one workload."""

    workload: str
    sizes: dict[str, int]
    tally: Tally = field(default_factory=Tally)
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    restart_s: float | None = None
    disk_bytes: int | None = None
    rss_mb: list[float] = field(default_factory=list)
    ping_us: list[float] = field(default_factory=list)
    #: One ``stats`` reply per (primary) server lifetime.
    stats: list[dict] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    #: Workload-specific raw numbers (see each body).
    extra: dict[str, Any] = field(default_factory=dict)
    #: In-process runs only (``spans`` and ``frames``: traced only).
    inprocess: bool = False
    spans: SpanRecorder | None = None
    versions_total: int | None = None
    frames: list[tuple[dict, dict]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))


# ---------------------------------------------------------------------------
# Deployments
# ---------------------------------------------------------------------------

_WAL = "{wal}"  # placeholder for the per-run WAL directory

#: ``repro serve`` arguments per server workload.
SERVE_ARGS: dict[str, list[str]] = {
    "oltp_fresh": ["--workload", "oltp"],
    "oltp_sustained": ["--workload", "oltp", "--wal-dir", _WAL],
    "cad_coop": ["--workload", "cad", "--key-dist", "zipf"],
    "cad_sharded": [
        "--workload", "cad", "--shards", str(wl.SHARDS), "--wal-dir", _WAL,
    ],
    "oltp_sync_repl": [
        "--workload", "oltp", "--wal-dir", _WAL, "--repl-port", "0",
        "--sync-replicas", "1", "--flush-interval", "0",
        "--wal-segment-bytes", "65536",
    ],
}


def _serve_args(workload: str, wal: Path) -> list[str]:
    return [str(wal) if arg == _WAL else arg for arg in SERVE_ARGS[workload]]


def _config(workload: str, wal: Path) -> ServerConfig:
    """The ``ServerConfig`` the CLI builds from :data:`SERVE_ARGS`."""
    args = SERVE_ARGS[workload]
    options: dict[str, Any] = {}
    if _WAL in args:
        options["wal_dir"] = str(wal)
    if "--shards" in args:
        options["shards"] = int(args[args.index("--shards") + 1])
    if "--repl-port" in args:
        options.update(
            repl_port=0, sync_replicas=1, flush_interval=0.0,
            segment_bytes=65536,
        )
    return ServerConfig(**options)


async def _probe_pings(conn: Conn, outcome: Outcome, count: int) -> None:
    for _ in range(count):
        started = perf_counter()
        await conn.client.ping()
        outcome.ping_us.append((perf_counter() - started) * 1e6)


@dataclass
class Deployment:
    """A brought-up configuration: processes and open connections."""

    server: ServerProc
    conns: list[Conn]
    follower_proc: ServerProc | None = None
    follower: Conn | None = None

    async def close(self, fleet: Fleet) -> None:
        for conn in self.conns + ([self.follower] if self.follower else []):
            await conn.close()
        fleet.stop(
            *filter(None, (self.server, self.follower_proc))
        )


async def _bring_up(
    fleet: Fleet, workload: str, wal_name: str, outcome: Outcome
) -> Deployment:
    """Spawn the workload's configuration; one ``setup_s`` sample.

    The clock runs from the first spawn until the whole configuration
    answers: the server's first ping and, for ``oltp_sync_repl``, the
    follower attached to the primary.
    """
    wal = fleet.wal_dir(wal_name)
    server, started = fleet.spawn(*_serve_args(workload, wal))
    deployment = Deployment(server, [])
    if workload == "oltp_sync_repl":
        # One primary connection commits; the second client reads the
        # follower.
        deployment.conns = [await Conn.open(server.port, outcome.tally)]
        deployment.follower_proc, _ = fleet.spawn(
            "--workload", "oltp",
            "--wal-dir", str(fleet.wal_dir(wal_name + "-follower")),
            "--follow-of", f"127.0.0.1:{server.repl_port}",
        )
        deployment.follower = await Conn.open(
            deployment.follower_proc.port, Tally()
        )
        await deployment.follower.client.ping()
        await _wait_follower_attached(deployment.conns[0])
    else:
        deployment.conns = [
            await Conn.open(server.port, outcome.tally) for _ in range(2)
        ]
    await deployment.conns[0].client.ping()
    outcome.setup_s.append(perf_counter() - started)
    return deployment


async def _sample_setup(
    fleet: Fleet, outcome: Outcome, workload: str
) -> None:
    """Throwaway bring-ups so ``setup_s`` is a median, not one sample."""
    for index in range(outcome.sizes["setup_samples"] - 1):
        deployment = await _bring_up(
            fleet, workload, f"probe{index}", outcome
        )
        await deployment.close(fleet)


async def _wait_follower_attached(primary: Conn) -> None:
    while True:
        status = await primary.client.repl_status()
        if status.get("followers"):
            return
        await asyncio.sleep(0.005)


# ---------------------------------------------------------------------------
# Bodies: which connection runs which scripts
# ---------------------------------------------------------------------------


async def _body_split(
    conns: list[Conn], scripts: list[wl.Script], first_tag: int = 0
) -> None:
    """Scripts dealt round-robin; every connection a free closed loop.

    A script's tag is its ordinal in the run.
    """
    count = len(conns)
    await asyncio.gather(
        *(
            run_scripts(
                conn,
                scripts[index::count],
                list(range(first_tag + index, first_tag + len(scripts), count)),
            )
            for index, conn in enumerate(conns)
        )
    )


async def _body_coop(
    short_conn: Conn,
    long_conn: Conn,
    long_scripts: list[wl.Script],
    short_scripts: list[wl.Script],
    per_round: int,
    seed: int,
) -> None:
    """``cad_coop``: a designer and the colleague who builds on them.

    Per round the long connection runs one 32-access transaction and
    the short connection ``per_round`` 4-access ones, each naming the
    in-flight long transaction as its partial-order predecessor — so
    their commits park server-side until the long one commits, and a
    long write after a short read of the same entity aborts the short
    reader (Figure 4), which restarts.

    The two connections take turns one request at a time in an order
    drawn from the seed.  A free-running pair would make every abort,
    re-assign and park depend on scheduling noise; with a fixed request
    sequence those counts repeat exactly, which is what lets a later
    change be judged on them.
    """
    rng = random.Random(wl.sub_seed(seed, "coop-turns"))
    backlog: list[ScriptRun] = []  # short scripts whose commit aborted
    fresh = iter(short_scripts)
    for round_index, long_script in enumerate(long_scripts):
        long_run = ScriptRun(
            long_conn, long_script, tag=("long", round_index)
        )
        await long_run.step()  # define: the predecessor must exist
        queue = backlog + [
            ScriptRun(
                short_conn, script, tag=("short", round_index),
                park_commit=True,
            )
            for script in itertools.islice(fresh, per_round)
        ]
        backlog = []
        parked: list[ScriptRun] = []
        while True:
            long_busy = not long_run.done and not long_run.at_commit
            if not queue and not long_busy:
                break
            if queue and (
                not long_busy or rng.random() < SHORT_TURN_SHARE
            ):
                short_run = queue[0]
                # Every (re)define names the predecessor's current
                # transaction (the long script may itself restart).
                short_run.predecessors = (long_run.name,)
                await short_run.step()
                if short_run.parked:
                    parked.append(queue.pop(0))
                elif short_run.done:
                    queue.pop(0)
            else:
                await long_run.step()
        while not long_run.done:
            await long_run.step()  # commit: releases the parked commits
        for run in parked:
            await run.settle()
            if not run.done:
                backlog.append(run)
    # Restarts left over from the last round run to completion alone.
    for run in backlog:
        run.predecessors = ()
        run.park_commit = False
        await run.run()


async def _body_sync_repl(
    primary: Conn,
    follower: Conn,
    scripts: list[wl.Script],
    outcome: Outcome,
    concurrent: bool,
) -> None:
    """Commits on the primary, a read-your-writes read after each ack."""
    reads: list[float] = []
    lags_ms: list[float] = []
    lags_lsn: list[int] = []
    stale_retries = 0

    async def ryw_read(token: int, tag: int) -> None:
        nonlocal stale_retries
        started = perf_counter()
        while True:
            try:
                reply = await follower.request(
                    "follower_read", tag, min_applied_lsn=token
                )
                break
            except StaleRead:
                stale_retries += 1
                await asyncio.sleep(0.0005)
        reads.append((perf_counter() - started) * 1000.0)
        lags_ms.append(float(reply["lag_ms"]))
        lags_lsn.append(int(reply["lag_lsn"]))
        if int(reply["applied_lsn"]) < token:
            outcome.check(
                "ryw_read_sees_commit", False,
                f"applied {reply['applied_lsn']} < token {token}",
            )

    tokens: "asyncio.Queue[tuple[int, int] | None]" = asyncio.Queue()

    async def writer() -> None:
        for index, script in enumerate(scripts):
            await ScriptRun(primary, script, tag=index).run()
            token = primary.tally.acked_lsn[-1]
            if concurrent:
                tokens.put_nowait((token, index))
            else:
                await ryw_read(token, index)
        tokens.put_nowait(None)

    async def reader() -> None:
        while (item := await tokens.get()) is not None:
            await ryw_read(*item)

    if concurrent:
        await asyncio.gather(writer(), reader())
    else:
        await writer()
    outcome.extra.update(
        ryw_read_ms=reads, lag_ms=lags_ms, lag_lsn=lags_lsn,
        stale_retries=stale_retries,
    )


# ---------------------------------------------------------------------------
# Script sets
# ---------------------------------------------------------------------------


def scripts_for(workload: str, seed: int, sizes: dict[str, int]) -> dict:
    """The seed's inputs for a server workload, as named script lists."""
    if workload == "oltp_fresh":
        return {
            f"round{index}": wl.oltp_scripts(
                sizes["txns"], wl.sub_seed(seed, workload, index)
            )
            for index in range(sizes["rounds"])
        }
    if workload in ("oltp_sustained", "oltp_sync_repl"):
        return {
            "all": wl.oltp_scripts(
                sizes["txns"], wl.sub_seed(seed, workload)
            )
        }
    if workload == "cad_sharded":
        return {
            "all": wl.cad_scripts(
                sizes["txns"], wl.sub_seed(seed, workload)
            )
        }
    if workload == "cad_coop":
        rounds, per_round = sizes["rounds"], sizes["short_per_round"]
        return {
            "long": wl.cad_scripts(
                rounds, wl.sub_seed(seed, workload, "long"),
                accesses=wl.LONG_ACCESSES, key_dist="zipf",
            ),
            "short": wl.cad_scripts(
                rounds * per_round, wl.sub_seed(seed, workload, "short"),
                accesses=wl.SHORT_ACCESSES, key_dist="zipf",
            ),
        }
    raise ValueError(f"no scripts for {workload}")


def script_digest(workload: str, seed: int, sizes: dict[str, int]) -> str:
    parts = scripts_for(workload, seed, sizes)
    return wl.digest([s for name in sorted(parts) for s in parts[name]])


async def _drive(
    workload: str,
    seed: int,
    sizes: dict[str, int],
    scripts: dict,
    conns: list[Conn],
    follower: Conn | None,
    outcome: Outcome,
    round_index: int,
) -> None:
    """Run the workload's body over open connections; time the window."""
    started = perf_counter()
    if workload == "cad_coop":
        await _body_coop(
            conns[0], conns[-1], scripts["long"], scripts["short"],
            sizes["short_per_round"], seed,
        )
    elif workload == "oltp_sync_repl":
        assert follower is not None
        await _body_sync_repl(
            conns[0], follower, scripts["all"], outcome,
            # In process there is one request in flight at a time, so
            # the read follows its commit instead of overlapping the
            # next transaction.
            concurrent=not outcome.inprocess,
        )
    elif workload == "oltp_fresh":
        await _body_split(
            conns, scripts[f"round{round_index}"],
            first_tag=round_index * sizes["txns"],
        )
    else:
        await _body_split(conns, scripts["all"])
    outcome.wall_s += perf_counter() - started


# ---------------------------------------------------------------------------
# External deployment (subprocess servers, two connections)
# ---------------------------------------------------------------------------


def _common_checks(outcome: Outcome) -> None:
    tally = outcome.tally
    outcome.check(
        "no_wire_faults", tally.wire_faults == 0,
        f"{tally.wire_faults} MALFORMED/UNKNOWN_OP/INTERNAL replies",
    )
    outcome.check(
        "all_scripts_committed",
        tally.committed == tally.scripts and tally.gave_up == 0,
        f"committed {tally.committed} of {tally.scripts}, "
        f"gave up {tally.gave_up}",
    )


async def run_external(
    workload: str, seed: int, sizes: dict[str, int]
) -> Outcome:
    outcome = Outcome(workload, sizes)
    scripts = scripts_for(workload, seed, sizes)
    with Fleet() as fleet:
        if workload == "oltp_fresh":
            for index in range(sizes["rounds"]):
                await _external_lifetime(
                    fleet, workload, seed, sizes, scripts, outcome, index
                )
        else:
            await _sample_setup(fleet, outcome, workload)
            await _external_lifetime(
                fleet, workload, seed, sizes, scripts, outcome, 0
            )
    _common_checks(outcome)
    return outcome


async def _external_lifetime(
    fleet: Fleet,
    workload: str,
    seed: int,
    sizes: dict[str, int],
    scripts: dict,
    outcome: Outcome,
    round_index: int,
) -> None:
    """One server lifetime: bring up, drive, observe, tear down."""
    wal_name = f"wal{round_index}"
    deployment = await _bring_up(fleet, workload, wal_name, outcome)
    server, conns = deployment.server, deployment.conns
    await _probe_pings(
        conns[0], outcome, PING_PROBES // sizes.get("rounds", 1)
    )

    await _drive(
        workload, seed, sizes, scripts, conns, deployment.follower,
        outcome, round_index,
    )

    outcome.stats.append(await conns[0].client.stats())
    outcome.extra["cascade_notifications"] = outcome.extra.get(
        "cascade_notifications", 0
    ) + abort_notifications(conns)
    if workload == "cad_sharded":
        cross = outcome.extra["cross_tags"] = {
            index
            for index, script in enumerate(scripts["all"])
            if wl.is_cross_shard(script)
        }
        counted = int(
            outcome.stats[-1]["stats"]["counters"].get(
                "server.cross.committed", 0
            )
        )
        outcome.check(
            "cross_shard_count", counted == len(cross),
            f"server.cross.committed {counted} vs predicted {len(cross)}",
        )
    rss = server.rss_high_water_mb()
    if deployment.follower is not None:
        await _check_replica(conns[0], deployment.follower, outcome)
        rss += deployment.follower_proc.rss_high_water_mb()
    outcome.rss_mb.append(rss)

    wal = fleet.wal_dir(wal_name)
    if wal.is_dir() and deployment.follower is None:
        for conn in conns:
            await conn.close()
        await _kill_restart_verify(
            fleet, server, _serve_args(workload, wal), wal, outcome
        )
    else:
        await deployment.close(fleet)
        if wal.is_dir():
            _measure_disk(wal, outcome)


def _measure_disk(wal: Path, outcome: Outcome) -> None:
    """Bytes on disk, and the newest checkpoint's (summed over shards)."""
    outcome.disk_bytes = tree_bytes(wal)
    newest: dict[Path, Path] = {}
    for path in sorted(wal.rglob("checkpoint-*.json")):
        newest[path.parent] = path
    outcome.extra["checkpoint_bytes_last"] = sum(
        path.stat().st_size for path in newest.values()
    )


async def _check_replica(
    primary: Conn, follower: Conn, outcome: Outcome
) -> None:
    """Follower caught up to the primary's durable tip, views equal."""
    primary_status = await primary.client.repl_status()
    durable = int(primary_status["durable_lsn"])
    for _ in range(400):
        follower_status = await follower.client.repl_status()
        if int(follower_status["applied_lsn"]) >= durable:
            break
        await asyncio.sleep(0.005)
    outcome.check(
        "follower_caught_up",
        int(follower_status["applied_lsn"]) == durable,
        f"applied {follower_status['applied_lsn']} vs durable {durable}",
    )
    primary_view = (await primary.client.follower_read())["view"]
    follower_view = (
        await follower.client.follower_read(read_your_writes=False)
    )["view"]
    outcome.check(
        "replica_views_equal", primary_view == follower_view,
        f"{primary_view} vs {follower_view}",
    )
    slot = primary_status["followers"][0]
    outcome.extra["shipped_lsn"] = int(slot["cursor_lsn"])


async def _kill_restart_verify(
    fleet: Fleet,
    server: ServerProc,
    args: list[str],
    wal: Path,
    outcome: Outcome,
) -> None:
    """SIGKILL, restart on the same directory, verify what survived.

    Kill survival model: the process dies, the operating system's page
    cache does not — bytes the WAL handed to ``write`` survive whether
    or not they were fsynced.  This is not a power-loss test.
    """
    kill_s = server.kill()
    # The killed state, copied aside for the recovery checks (the copy
    # is outside the restart clock: a user restarting has no such step).
    killed = wal.with_name(wal.name + "-killed")
    shutil.copytree(wal, killed)
    _measure_disk(killed, outcome)
    restarted, started = fleet.spawn(*args)
    conn = await Conn.open(restarted.port, Tally())
    await conn.client.ping()
    outcome.restart_s = kill_s + (perf_counter() - started)
    await conn.close()
    fleet.stop(restarted)

    outcome.check(
        "recover_verify_exit_0", run_recover_verify(killed) == 0,
        "repro recover --verify on the killed directory",
    )
    acked = set(outcome.tally.acked)
    started = perf_counter()
    if "--shards" in args:
        sharded = recover_sharded(killed, verify=True)
        elapsed = perf_counter() - started
        results = list(sharded.shards.values())
        verified = sharded.verified
    else:
        results = [recover(killed, verify=True)]
        elapsed = perf_counter() - started
        verified = results[0].verified
    recovered = {name for result in results for name in result.committed}
    outcome.check("recovery_verified", verified, "in-process recover()")
    outcome.check(
        "acked_commits_survive", acked <= recovered,
        f"{len(acked - recovered)} acked commits missing after recovery",
    )
    outcome.extra["recover_s"] = elapsed
    outcome.extra["recover_records"] = sum(
        result.records_replayed for result in results
    )


# ---------------------------------------------------------------------------
# In-process deployment (one connection; the traced run and its twin)
# ---------------------------------------------------------------------------


def _traced_managers(
    workload: str, database: Database, config: ServerConfig,
    registry: MetricsRegistry, recorder: SpanRecorder,
) -> dict[str, Any]:
    """Span-recording managers, built the way the server builds its own."""
    durable = dict(
        flush_interval=config.flush_interval,
        checkpoint_every=config.checkpoint_every,
        segment_bytes=config.segment_bytes,
        retain=config.retain,
        registry=registry,
    )
    if config.shards > 1:
        traced = traced_manager_class(DurableTransactionManager)
        managers = []
        for index in range(config.shards):
            shard_db = Database(
                database.schema, database.constraint, database.initial_state
            )
            manager, _ = traced.open(
                shard_wal_dir(config.wal_dir, index),
                lambda db=shard_db: db,
                root_name=f"sh{index}",
                **durable,
            )
            attach(manager, recorder)
            managers.append(manager)
        return {"shard_managers": managers}
    if config.wal_dir:
        traced = traced_manager_class(DurableTransactionManager)
        manager, _ = traced.open(
            config.wal_dir, lambda: database, **durable
        )
    else:
        traced = traced_manager_class(TransactionManager)
        manager = traced(database, registry=registry)
    attach(manager, recorder)
    return {"manager": manager}


async def run_inprocess(
    workload: str, seed: int, sizes: dict[str, int], traced: bool
) -> Outcome:
    recorder = SpanRecorder() if traced else None
    outcome = Outcome(workload, sizes, inprocess=True, spans=recorder)
    scripts = scripts_for(workload, seed, sizes)
    kind = SERVE_ARGS[workload][1]
    rounds = sizes["rounds"] if workload == "oltp_fresh" else 1
    with Fleet() as fleet:  # no subprocesses: just the temp directory
        for index in range(rounds):
            wal = fleet.wal_dir(f"wal{index}")
            config = _config(workload, wal)
            database = build_workload(kind).fresh_database()
            registry = MetricsRegistry()
            overrides = (
                _traced_managers(
                    workload, database, config, registry, recorder
                )
                if recorder is not None
                else {}
            )
            server = TransactionServer(
                database, config, registry=registry, **overrides
            )
            if recorder is not None:
                outcome.extra.setdefault("lifetime_starts", []).append(
                    len(recorder.spans)
                )
            await server.start()
            follower_server = None
            try:
                conn = await Conn.open(server.port, outcome.tally, recorder)
                if traced:
                    conn.frames = outcome.frames
                follower = None
                if workload == "oltp_sync_repl":
                    follower_server = TransactionServer(
                        build_workload(kind).fresh_database(),
                        ServerConfig(
                            wal_dir=str(fleet.wal_dir("follower")),
                            follow_of=f"127.0.0.1:{server.repl_port}",
                        ),
                    )
                    await follower_server.start()
                    follower = await Conn.open(
                        follower_server.port, Tally(), recorder
                    )
                    await _wait_follower_attached(conn)
                await _drive(
                    workload, seed, sizes, scripts, [conn], follower,
                    outcome, index,
                )
                outcome.stats.append(await conn.client.stats())
                managers = overrides.get("shard_managers") or (
                    [overrides["manager"]] if overrides else []
                )
                if managers:
                    outcome.versions_total = (
                        outcome.versions_total or 0
                    ) + sum(
                        sum(1 for _ in manager.database.store)
                        for manager in managers
                    )
                await conn.close()
                if follower is not None:
                    await follower.close()
            finally:
                if follower_server is not None:
                    await follower_server.shutdown()
                await server.shutdown()
    _common_checks(outcome)
    return outcome


# ---------------------------------------------------------------------------
# census_random (no server)
# ---------------------------------------------------------------------------

_CENSUS_SHAPE = dict(
    num_transactions=4, ops_per_transaction=4, entities=("x", "y", "z"),
)
_CENSUS_OBJECTS = [{"x", "y"}, {"z"}]


class _CheckCounter(Tracer):
    """Counts the class tests ``classify`` actually runs."""

    enabled = True

    def __init__(self) -> None:
        self.checks = 0

    def start(self, kind, txn, *args, **attrs):
        if kind == "class.check":
            self.checks += 1
        return None

    def end(self, span, **attrs) -> None:
        return None


def run_census(seed: int, sizes: dict[str, int], traced: bool) -> Outcome:
    """Classify seeded random schedules: staged, then an exact subsample."""
    outcome = Outcome("census_random", sizes)
    seeds = wl.census_seeds(sizes["schedules"], seed)
    subsample = random.Random(wl.sub_seed(seed, "census-exact")).sample(
        range(len(seeds)), sizes["exact"]
    )
    started = perf_counter()
    schedules = [
        random_schedule(seed=schedule_seed, **_CENSUS_SHAPE)
        for schedule_seed in seeds
    ]
    # Fresh objects for the exact pass: a schedule memoises what the
    # staged pass computed on it.
    again = [
        random_schedule(seed=seeds[index], **_CENSUS_SHAPE)
        for index in subsample
    ]
    outcome.setup_s.append(perf_counter() - started)
    counter = _CheckCounter() if traced else None
    kwargs = {"tracer": counter} if counter is not None else {}

    started = perf_counter()
    staged = [
        classify(schedule, _CENSUS_OBJECTS, **kwargs)
        for schedule in schedules
    ]
    staged_s = perf_counter() - started
    started = perf_counter()
    exact = [
        classify(schedule, _CENSUS_OBJECTS, exact=True)
        for schedule in again
    ]
    exact_s = perf_counter() - started
    outcome.wall_s = staged_s + exact_s

    violations = sum(
        bool(containment_violations(member)) for member in staged + exact
    )
    mismatches = sum(
        staged[index] != member for index, member in zip(subsample, exact)
    )
    outcome.check(
        "no_containment_violations", violations == 0,
        f"{violations} membership vectors break an inclusion law",
    )
    outcome.check(
        "staged_equals_exact", mismatches == 0,
        f"{mismatches} of {len(exact)} subsample memberships differ",
    )
    outcome.tally.scripts = outcome.tally.attempts = len(staged) + len(exact)
    outcome.tally.committed = len(staged) + len(exact) - mismatches
    outcome.extra.update(staged_s=staged_s, exact_s=exact_s)
    if counter is not None:
        distinct = len({schedule_fingerprint(s) for s in schedules})
        outcome.extra.update(
            checks_run=counter.checks,
            # Share of schedules a fingerprint cache (as the census
            # engine keeps) would answer without classifying.
            cache_hit_share=1.0 - distinct / len(schedules),
        )
    return outcome
