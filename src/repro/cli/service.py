"""The Section-5 manager as a service: serve it, watch it, fail it over,
and drive load against it."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import time

from .common import WORKLOAD, arg, command, host_port, positive_int, write_json


def server_config(args: argparse.Namespace):
    """The ``ServerConfig`` a parsed ``serve`` command line asks for."""
    from ..server import ServerConfig

    names = {field.name for field in dataclasses.fields(ServerConfig)}
    return ServerConfig(
        **{name: value for name, value in vars(args).items() if name in names}
    )


def _unreachable(args: argparse.Namespace, error: OSError) -> int:
    print(
        f"error: cannot reach server at {args.host}:{args.port} ({error})",
        file=sys.stderr,
    )
    return 2


def _recovery_banner(server, args: argparse.Namespace) -> str | None:
    """The start-up line saying what ``--wal-dir`` held, if anything."""
    if server.recovery is not None:
        summary = server.recovery.summary()
        checkpoint_lsn = summary["checkpoint_lsn"]
        last_lsn = summary["last_lsn"]
        replayed = (
            f"lsn {checkpoint_lsn + 1}..{last_lsn} "
            f"({summary['records_replayed']} records)"
            if last_lsn > checkpoint_lsn
            else "nothing (WAL ends at the checkpoint)"
        )
        return (
            "repro serve: recovered "
            f"{args.wal_dir}: checkpoint lsn {checkpoint_lsn}, "
            f"replayed {replayed}, "
            f"undid {len(summary['aborted_in_flight'])} in-flight "
            f"(+{summary['cascaded_aborts']} cascaded aborts, "
            f"{summary['cascaded_commits']} cascaded commits), "
            f"committed={summary['committed']}, "
            f"{summary['recovery_ms']} ms"
        )
    if server.shard_recoveries:
        results = server.shard_recoveries.values()
        replayed = sum(result.records_replayed for result in results)
        committed = sum(len(result.committed) for result in results)
        resolved = {entry["decision"] for entry in server.shard_resolutions}
        in_doubt = (
            f", resolved {len(server.shard_resolutions)} in-doubt "
            f"2PC branch(es) ({', '.join(sorted(resolved))})"
            if server.shard_resolutions
            else ""
        )
        return (
            f"repro serve: recovered {args.wal_dir} across "
            f"{len(server.shard_recoveries)} shards: "
            f"replayed {replayed} records, "
            f"committed={committed}{in_doubt}"
        )
    if args.wal_dir and args.follow_of:
        return (
            f"repro serve: follower of {args.follow_of}, "
            f"replicating into {args.wal_dir}"
        )
    if args.wal_dir:
        return (
            f"repro serve: fresh start — initialized {args.wal_dir} "
            "(no prior WAL history to recover)"
        )
    return None


# Every flag whose dest names a ``ServerConfig`` field is copied into
# the config (see :func:`server_config`).
@command(
    "serve",
    "run the Section-5 manager as a JSON-lines TCP service",
    *host_port(help="TCP port (0 = ephemeral; default 7455)"),
    *WORKLOAD,
    arg("--shards", type=positive_int, default=1,
        help="partition the entity space across this many single-threaded "
        "shards (cross-shard transactions use 2PC; with --wal-dir each shard "
        "logs under <dir>/shardN; default 1)"),
    arg("--queue-size", type=positive_int, default=256,
        help="command-queue bound; overflow answers BUSY"),
    arg("--request-timeout", type=float, default=5.0,
        help="seconds a request may stay queued or parked"),
    arg("--session-timeout", type=float, default=300.0,
        help="idle seconds before a connection is closed"),
    arg("--wal-dir", default=None,
        help="durability: WAL + checkpoint directory (recovered on start; "
        "omit for a purely in-memory server)"),
    arg("--flush-interval", type=float, default=0.005,
        help="group-commit fsync window in seconds (<= 0 = fsync every "
        "commit; default 0.005)"),
    arg("--checkpoint-every", type=positive_int, default=512,
        help="WAL records between checkpoints (default 512)"),
    arg("--retain", type=positive_int, default=3,
        help="checkpoints to retain (default 3)"),
    arg("--strict", action="store_true",
        help="run the manager in strict mode (ST histories; reads and writes "
        "block on uncommitted versions)"),
    arg(
        "--wal-segment-bytes", type=int, default=0,
        dest="segment_bytes", metavar="WAL_SEGMENT_BYTES",
        help="roll the WAL to a fresh segment once the active one "
        "exceeds this many bytes (0 = roll only at checkpoints)",
    ),
    arg("--repl-port", type=int, default=None,
        help="replication: accept follower connections on this port (0 = "
        "ephemeral; requires --wal-dir)"),
    arg("--sync-replicas", type=int, default=0,
        help="replication: withhold commit replies until this many followers "
        "have fsynced the commit (default 0 = async)"),
    arg("--follow-of", default=None, metavar="HOST:PORT",
        help="run as a follower of the primary's replication listener at "
        "HOST:PORT (requires --wal-dir; mutating ops redirect)"),
    arg("--metrics-port", type=int, default=None,
        help="also serve /metrics (Prometheus text), /stats and /healthz over "
        "HTTP on this port (0 = ephemeral; omit to disable)"),
    arg("--trace-out", default=None, metavar="FILE",
        help="live tracing: stream completed spans to FILE (JSONL, replayable "
        "with 'repro trace')"),
    arg("--trace-ring", type=positive_int, default=4096,
        help="span ring-buffer capacity for --trace-out (default 4096)"),
    arg("--slow-ms", type=float, default=None,
        help="live tracing: dump the span tree of any transaction slower than "
        "this many milliseconds to --slow-log"),
    arg("--slow-log", default="slow-txns.jsonl", metavar="FILE",
        help="slow-transaction log path (default slow-txns.jsonl)"),
)
def serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from ..errors import DurabilityError
    from ..obs import LiveTracer, SpanRing, write_jsonl
    from ..server import TransactionServer
    from ..workload import build_workload

    workload = build_workload(
        args.workload,
        transactions=args.transactions,
        seed=args.seed,
        key_dist=args.key_dist,
    )
    if args.follow_of and not args.wal_dir:
        print(
            "error: --follow-of requires --wal-dir (the follower "
            "stores its replicated history there)",
            file=sys.stderr,
        )
        return 2
    config = server_config(args)

    # Live tracing: on when any consumer of spans is requested.
    tracer = ring = slow_log = on_slow = None
    if args.slow_ms is not None:
        slow_log = open(  # noqa: SIM115 — closed in the finally below
            args.slow_log, "a", encoding="utf-8"
        )

        def on_slow(root, spans) -> None:
            tree = {
                "txn": root.txn,
                "duration": root.duration,
                "spans": [span.to_dict() for span in spans],
            }
            slow_log.write(json.dumps(tree, sort_keys=True) + "\n")
            slow_log.flush()

    if args.trace_out or args.slow_ms is not None:
        ring = SpanRing(args.trace_ring)
        tracer = LiveTracer(
            ring,
            slow_threshold=None if on_slow is None else args.slow_ms / 1000.0,
            on_slow=on_slow,
        )

    async def _run() -> int:
        try:
            server = TransactionServer(
                workload.fresh_database(), config=config, tracer=tracer
            )
        except ValueError as error:  # a flag combination the server refuses
            print(f"error: {error}", file=sys.stderr)
            return 2
        banner = _recovery_banner(server, args)
        if banner is not None:
            print(banner, flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-Unix loop or non-main thread; Ctrl-C still raises
        await server.start()
        extras = [f" (wal: {args.wal_dir})"] if args.wal_dir else []
        if server.repl_port is not None:
            extras.append(
                f" (repl: {config.host}:{server.repl_port}, "
                f"sync_replicas={config.sync_replicas})"
            )
        if args.follow_of:
            extras.append(f" (follower of {args.follow_of})")
        if server.metrics_port is not None:
            extras.append(
                f" (metrics: http://{config.host}:{server.metrics_port}"
                "/metrics)"
            )
        print(
            f"repro serve: {workload.name} listening on "
            f"{config.host}:{server.port}" + "".join(extras),
            flush=True,
        )

        pump = None
        if args.trace_out:
            subscriber = ring.subscribe()
            trace_file = open(args.trace_out, "a", encoding="utf-8")

            def _drain_spans() -> None:
                write_jsonl(subscriber.poll()[0], trace_file)
                trace_file.flush()

            async def _trace_pump() -> None:
                while True:
                    await asyncio.sleep(0.25)
                    _drain_spans()

            pump = asyncio.create_task(_trace_pump(), name="repro-trace-pump")

        await stop.wait()
        print("repro serve: draining", flush=True)
        summary = await server.shutdown()
        if pump is not None:
            pump.cancel()
            _drain_spans()
            trace_file.close()
            print(f"repro serve: trace -> {args.trace_out}", flush=True)
        print(
            "repro serve: drained "
            f"(aborted={len(summary['aborted'])}, "
            f"parked_failed={summary['parked_failed']}, "
            f"notifications_dropped={summary['notifications_dropped']})",
            flush=True,
        )
        return 0

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 0
    except DurabilityError as error:  # recovery refusal
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if slow_log is not None:
            slow_log.close()


@command(
    "top",
    "live dashboard over a running server's stats command",
    *host_port(),
    arg("--interval", type=float, default=1.0,
        help="seconds between polls (default 1.0)"),
    arg("--iterations", type=positive_int, default=None,
        help="stop after N frames (default: run until interrupted)"),
)
def top(args: argparse.Namespace) -> int:
    """Poll ``stats`` every ``--interval`` seconds and redraw; ANSI
    screen clearing only when stdout is a terminal."""
    from ..obs import render_top
    from ..server.client import Client

    try:
        client = Client.connect(args.host, args.port)
    except OSError as error:
        return _unreachable(args, error)
    frames = range(args.iterations) if args.iterations else itertools.count()
    previous, previous_at = None, time.monotonic()
    with client:
        try:
            for frame in frames:
                if frame:
                    time.sleep(args.interval)
                try:
                    stats = client.stats()
                except (ConnectionError, OSError):
                    print("server went away", file=sys.stderr)
                    return 1
                now = time.monotonic()
                if sys.stdout.isatty():
                    sys.stdout.write("\x1b[H\x1b[2J")  # home + clear
                elapsed = now - previous_at
                sys.stdout.write(
                    render_top(stats, previous=previous, elapsed=elapsed)
                )
                sys.stdout.flush()
                previous, previous_at = stats, now
        except KeyboardInterrupt:
            pass
    return 0


@command(
    "promote",
    "fail over: elect the highest-applied follower among --peer "
    "nodes and promote it (exit 0 = promoted + verified)",
    arg("--peer", action="append", required=True, metavar="HOST:PORT",
        help="a candidate node's client address (repeatable)"),
    arg("--listen-port", type=int, default=None,
        help="have the promoted node also bind this client port (the dead "
        "primary's)"),
    arg("--timeout", type=float, default=10.0,
        help="per-peer connect/request timeout in seconds"),
)
def promote(args: argparse.Namespace) -> int:
    from ..replication import Promoter, ReplicationError
    from ..server import parse_hostport
    from ..server.client import Client
    from ..server.errors import ServerError

    statuses: list[dict] = []
    for peer in args.peer:
        try:
            host, port = parse_hostport(peer)
        except ValueError:
            print(
                f"error: bad peer {peer!r} (expected host:port)",
                file=sys.stderr,
            )
            return 2
        try:
            with Client.connect(host, port, timeout=args.timeout) as client:
                status = client.repl_status()
        except (OSError, ConnectionError) as error:
            print(f"repro promote: {peer} unreachable ({error})")
            continue
        status["peer"] = {"host": host, "port": port}
        print(
            f"repro promote: {peer} role={status.get('role', '?')} "
            f"applied_lsn={status.get('applied_lsn', '-')}"
        )
        statuses.append(status)
    try:
        winner = Promoter.choose(statuses)
    except ReplicationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    peer = winner["peer"]
    address = f"{peer['host']}:{peer['port']}"
    print(
        f"repro promote: electing {address} "
        f"(applied_lsn={winner['applied_lsn']})"
    )
    try:
        with Client.connect(
            peer["host"], peer["port"], timeout=args.timeout
        ) as client:
            report = client.promote(listen_port=args.listen_port)
    except ServerError as error:
        print(
            f"error: promotion failed on {address}: {error}",
            file=sys.stderr,
        )
        return 1
    except (OSError, ConnectionError) as error:
        print(
            f"error: lost {address} during promotion ({error})",
            file=sys.stderr,
        )
        return 1
    recovery = report.get("recovery", {})
    verified = recovery.get("verified")
    print(
        f"repro promote: {address} is primary "
        f"(promote {report.get('promote_ms', '?')} ms, "
        f"recovered committed={recovery.get('committed', '?')}, "
        f"last lsn={recovery.get('last_lsn', '?')}, "
        f"verified={verified})"
    )
    if args.listen_port is not None:
        print(
            f"repro promote: {address} also listening on "
            f"{peer['host']}:{args.listen_port}"
        )
    return 0 if verified else 1


@command(
    "loadgen",
    "replay a workload against a running server",
    *host_port(),
    arg("--clients", type=positive_int, default=8,
        help="number of concurrent connections"),
    *WORKLOAD,
    arg("--think", type=float, default=0.0,
        help="scripted think time in virtual units (see --think-scale)"),
    arg("--think-scale", type=float, default=0.0,
        help="wall seconds per virtual think unit (0 = no sleeping)"),
    arg("--max-restarts", type=positive_int, default=8,
        help="restart attempts per script before giving up"),
    arg("--connect-retries", type=int, default=25,
        help="connection attempts while waiting for the server"),
    arg("--output", default="BENCH_server.json",
        help="bench JSON path ('' = don't write)"),
)
def loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from ..workload import build_workload
    from ..workload.driver import report_table, run_loadgen

    workload = build_workload(
        args.workload,
        transactions=args.transactions,
        think=args.think,
        seed=args.seed,
        key_dist=args.key_dist,
    )
    try:
        report = asyncio.run(
            run_loadgen(
                workload,
                clients=args.clients,
                host=args.host,
                port=args.port,
                think_scale=args.think_scale,
                max_restarts=args.max_restarts,
                connect_retries=args.connect_retries,
                seed=args.seed,
            )
        )
    except OSError as error:
        return _unreachable(args, error)
    print(report_table(report))
    if args.output:
        write_json(args.output, report.to_json())
        print(f"bench -> {args.output}")
    if report.protocol_errors:
        print(
            f"error: {report.protocol_errors} wire-protocol errors",
            file=sys.stderr,
        )
        return 1
    return 0
