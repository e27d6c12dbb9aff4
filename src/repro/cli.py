"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``classify`` — classify a schedule into the Section-4 classes;
* ``examples`` — verify the paper's worked examples;
* ``census`` — the Figure-2 census (exhaustive or random);
* ``admission`` — the admitted-interleavings ladder (D1);
* ``showdown`` — the P1 scheduler comparison on a CAD workload;
* ``trace`` — record or replay a transaction-lifecycle trace (JSONL);
* ``dot`` — export a schedule's precedence graphs as Graphviz DOT;
* ``serve`` — run the Section-5 manager as a JSON-lines TCP service
  (``--wal-dir`` makes it durable: WAL + checkpoints + recovery;
  ``--metrics-port`` adds a Prometheus-scrapeable HTTP endpoint;
  ``--trace-out``/``--slow-ms`` turn on live span streaming;
  ``--repl-port`` accepts followers, ``--follow-of`` runs as one);
* ``top`` — a refreshing dashboard over a running server's ``stats``;
* ``promote`` — fail over: elect and promote the highest-applied
  follower through the ``recover --verify`` gate;
* ``recover`` — run verified crash recovery over a WAL directory;
* ``loadgen`` — replay a workload against a running server and write
  ``BENCH_server.json``;
* ``fuzz`` — run the deterministic concurrency fuzzer over a seed
  range (``repro fuzz replay FILE`` re-executes a saved reproducer).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence


def _version() -> str:
    """The installed distribution's version, or the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _positive_int(text: str) -> int:
    """argparse type for options that must be an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_objects(text: str | None, schedule) -> list[set[str]]:
    """Parse ``"x,y;z"`` into conjunct objects; default = one conjunct."""
    if not text:
        return [set(schedule.entities)]
    groups = []
    for chunk in text.split(";"):
        names = {name.strip() for name in chunk.split(",") if name.strip()}
        if names:
            groups.append(names)
    return groups or [set(schedule.entities)]


def _cmd_classify(args: argparse.Namespace) -> int:
    from .analysis import text_table
    from .classes import REGION_LABELS, classify, figure2_region
    from .schedules import Schedule

    schedule = Schedule.parse(args.schedule)
    objects = _parse_objects(args.objects, schedule)
    membership = classify(schedule, objects)
    region = figure2_region(membership)
    print(f"schedule:  {schedule}")
    print(f"objects:   {[sorted(group) for group in objects]}")
    rows = [
        {"class": name, "member": "yes" if member else "no"}
        for name, member in membership.as_dict().items()
    ]
    print(text_table(rows))
    print(f"Figure-2 region: {region} ({REGION_LABELS[region]})")
    return 0


def _cmd_examples(args: argparse.Namespace) -> int:
    from .analysis import text_table
    from .classes import ALL_EXAMPLES

    rows = []
    failures = 0
    for example in ALL_EXAMPLES:
        bad = example.check()
        failures += len(bad)
        rows.append(
            {
                "example": example.name,
                "region": example.region(),
                "status": "OK" if not bad else "; ".join(bad),
            }
        )
    print(text_table(rows))
    return 1 if failures else 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .analysis import (
        census_of_programs,
        census_of_random_schedules,
        example1_programs,
        region_report,
    )

    if args.random:
        result = census_of_random_schedules(
            args.random,
            num_transactions=args.transactions,
            ops_per_transaction=args.ops,
            entities=("x", "y"),
            objects=[{"x"}, {"y"}],
            seed=args.seed,
            exact=args.exact,
        )
        print(
            f"random census: {result.total} schedules "
            f"({args.transactions} txns x {args.ops} ops)"
        )
    else:
        result = census_of_programs(
            example1_programs(),
            [{"x"}, {"y"}],
            limit=args.limit,
            exact=args.exact,
            jobs=args.jobs,
        )
        mode = "exact" if args.exact else "fast"
        workers = f", {args.jobs} jobs" if args.jobs > 1 else ""
        print(
            f"exhaustive census of Example 1's programs "
            f"({mode} classifier{workers})"
        )
    print(region_report(result.by_region))
    print(f"containment violations: {result.containment_failures}")
    if not args.random:
        print(
            f"classification cache hits: {result.cache_hits}"
            f"/{result.total}"
        )
    print("strict gains:")
    for label, gain in result.strict_gains().items():
        print(f"  {label:14s} {gain}")
    return 1 if result.containment_failures else 0


def _cmd_admission(args: argparse.Namespace) -> int:
    from .analysis import admission_report, example1_programs, text_table

    result = admission_report(example1_programs(), [{"x"}, {"y"}])
    print(
        f"admitted interleavings per criterion "
        f"({result.total} interleavings of Example 1's programs)"
    )
    print(text_table(result.rows()))
    return 0


def _cmd_showdown(args: argparse.Namespace) -> int:
    from .sim import compare_schedulers, metrics_table
    from .workload import cad_workload

    workload = cad_workload(
        num_designers=args.designers,
        think_time=args.think,
        seed=args.seed,
    )
    print(f"workload: {workload.name}")
    print(metrics_table(compare_schedulers(workload, seed=args.seed)))
    if args.trace:
        from .obs import RecordingTracer, write_jsonl
        from .sim import DEFAULT_SCHEDULERS, run_one

        tracer = RecordingTracer()
        run_one(
            DEFAULT_SCHEDULERS["korth-speegle"],
            workload,
            seed=args.seed,
            tracer=tracer,
        )
        count = write_jsonl(list(tracer.spans), args.trace)
        print(f"trace: {count} spans (korth-speegle) -> {args.trace}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import (
        RecordingTracer,
        filter_spans,
        load_jsonl,
        render_timeline,
        timeline_stats,
        write_jsonl,
    )

    if args.record:
        from .sim import DEFAULT_SCHEDULERS, run_one
        from .workload import cad_workload

        factory = DEFAULT_SCHEDULERS.get(args.scheduler)
        if factory is None:
            known = ", ".join(sorted(DEFAULT_SCHEDULERS))
            print(
                f"error: unknown scheduler {args.scheduler!r} "
                f"(choose from: {known})",
                file=sys.stderr,
            )
            return 2
        workload = cad_workload(
            num_designers=args.designers,
            think_time=args.think,
            seed=args.seed,
        )
        tracer = RecordingTracer()
        metrics = run_one(
            factory,
            workload,
            seed=args.seed,
            tracer=tracer,
        )
        count = write_jsonl(list(tracer.spans), args.file)
        print(
            f"recorded {count} spans from {args.scheduler} on "
            f"{workload.name} ({metrics.committed_count} committed, "
            f"{metrics.total_waits} waits) -> {args.file}"
        )
        if not args.timeline:
            return 0

    try:
        spans = load_jsonl(args.file)
    except FileNotFoundError:
        print(f"error: no trace file {args.file!r}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as error:  # bad JSON / wrong shape
        print(
            f"error: {args.file!r} is not a JSONL trace ({error})",
            file=sys.stderr,
        )
        return 2
    kinds = args.kind.split(",") if args.kind else None
    spans = filter_spans(spans, txn=args.txn, kinds=kinds)
    if not spans:
        print("(no spans match)")
        return 0
    if args.stats:
        print(f"{len(spans)} spans")
        for kind, count in sorted(timeline_stats(spans).items()):
            print(f"  {kind:16s} {count}")
        return 0
    print(render_timeline(spans))
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    from .classes.export import (
        conflict_graph_dot,
        cpc_graphs_dot,
        mv_conflict_graph_dot,
    )
    from .schedules import Schedule

    schedule = Schedule.parse(args.schedule)
    if args.graph == "conflict":
        print(conflict_graph_dot(schedule))
    elif args.graph == "mv":
        print(mv_conflict_graph_dot(schedule))
    else:
        objects = _parse_objects(args.objects, schedule)
        print(cpc_graphs_dot(schedule, objects))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from .obs import LiveTracer, SpanRing
    from .server import ServerConfig, TransactionServer
    from .workload import build_workload

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
    config = ServerConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        queue_size=args.queue_size,
        request_timeout=args.request_timeout,
        session_timeout=args.session_timeout,
        wal_dir=args.wal_dir,
        flush_interval=args.flush_interval,
        checkpoint_every=args.checkpoint_every,
        retain=args.retain,
        strict=args.strict,
        segment_bytes=args.wal_segment_bytes,
        repl_port=args.repl_port,
        sync_replicas=args.sync_replicas,
        follow_of=args.follow_of,
        shards=args.shards,
    )

    # Live tracing: on when any consumer of spans is requested.
    tracer = None
    ring = None
    slow_log = None
    if args.trace_out or args.slow_ms is not None:
        ring = SpanRing(args.trace_ring)
        if args.slow_ms is not None:
            slow_log = open(  # noqa: SIM115 — closed in the finally below
                args.slow_log, "a", encoding="utf-8"
            )

            def _on_slow(root, spans) -> None:
                slow_log.write(
                    json.dumps(
                        {
                            "txn": root.txn,
                            "duration": root.duration,
                            "spans": [span.to_dict() for span in spans],
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
                slow_log.flush()

            tracer = LiveTracer(
                ring,
                slow_threshold=args.slow_ms / 1000.0,
                on_slow=_on_slow,
            )
        else:
            tracer = LiveTracer(ring)

    async def _run() -> None:
        server = TransactionServer(
            workload.fresh_database(), config=config, tracer=tracer
        )
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
            print(
                "repro serve: recovered "
                f"{args.wal_dir}: checkpoint lsn {checkpoint_lsn}, "
                f"replayed {replayed}, "
                f"undid {len(summary['aborted_in_flight'])} in-flight "
                f"(+{summary['cascaded_aborts']} cascaded aborts, "
                f"{summary['cascaded_commits']} cascaded commits), "
                f"committed={summary['committed']}, "
                f"{summary['recovery_ms']} ms",
                flush=True,
            )
        elif server.shard_recoveries:
            replayed = sum(
                result.records_replayed
                for result in server.shard_recoveries.values()
            )
            committed = sum(
                len(result.committed)
                for result in server.shard_recoveries.values()
            )
            resolved = {
                entry["decision"] for entry in server.shard_resolutions
            }
            in_doubt = (
                f", resolved {len(server.shard_resolutions)} in-doubt "
                f"2PC branch(es) ({', '.join(sorted(resolved))})"
                if server.shard_resolutions
                else ""
            )
            print(
                f"repro serve: recovered {args.wal_dir} across "
                f"{len(server.shard_recoveries)} shards: "
                f"replayed {replayed} records, "
                f"committed={committed}{in_doubt}",
                flush=True,
            )
        elif args.wal_dir and args.follow_of:
            print(
                f"repro serve: follower of {args.follow_of}, "
                f"replicating into {args.wal_dir}",
                flush=True,
            )
        elif args.wal_dir:
            print(
                f"repro serve: fresh start — initialized {args.wal_dir} "
                "(no prior WAL history to recover)",
                flush=True,
            )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-Unix loop or non-main thread; Ctrl-C still raises
        await server.start()
        durable = f" (wal: {args.wal_dir})" if args.wal_dir else ""
        extras = [durable] if durable else []
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

        drain_trace = None
        if args.trace_out and ring is not None:
            subscriber = ring.subscribe()
            trace_file = open(args.trace_out, "a", encoding="utf-8")

            def _drain_spans() -> int:
                spans, _dropped = subscriber.poll()
                for span in spans:
                    trace_file.write(
                        json.dumps(span.to_dict(), sort_keys=True) + "\n"
                    )
                if spans:
                    trace_file.flush()
                return len(spans)

            async def _trace_pump() -> None:
                while True:
                    await asyncio.sleep(0.25)
                    _drain_spans()

            pump = asyncio.create_task(
                _trace_pump(), name="repro-trace-pump"
            )

            def drain_trace() -> None:
                pump.cancel()
                _drain_spans()
                trace_file.close()

        await stop.wait()
        print("repro serve: draining", flush=True)
        summary = await server.shutdown()
        if drain_trace is not None:
            drain_trace()
            print(f"repro serve: trace -> {args.trace_out}", flush=True)
        print(
            "repro serve: drained "
            f"(aborted={len(summary['aborted'])}, "
            f"parked_failed={summary['parked_failed']}, "
            f"notifications_dropped={summary['notifications_dropped']})",
            flush=True,
        )

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    except Exception as error:  # noqa: BLE001 — recovery refusal path
        from .errors import DurabilityError

        if isinstance(error, DurabilityError):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise
    finally:
        if slow_log is not None:
            slow_log.close()
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    from .replication import Promoter, ReplicationError
    from .server.client import Client
    from .server.errors import ServerError

    statuses: list[dict] = []
    for peer in args.peer:
        host, _, port_text = peer.rpartition(":")
        host = host or "127.0.0.1"
        try:
            port = int(port_text)
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


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs import run_top

    return run_top(
        args.host,
        args.port,
        interval=args.interval,
        iterations=args.iterations,
    )


def _cmd_recover(args: argparse.Namespace) -> int:
    import json

    from .durability import is_sharded_layout, recover
    from .errors import DurabilityError
    from .obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    try:
        if is_sharded_layout(args.wal_dir):
            return _recover_sharded_layout(args, registry)
        result = recover(
            args.wal_dir,
            verify=args.verify,
            strict=args.strict,
            registry=registry,
        )
    except DurabilityError as error:
        if args.json:
            print(json.dumps({"ok": False, "error": str(error)}))
        else:
            print(f"error: {error}", file=sys.stderr)
        return 2
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"wal dir:            {args.wal_dir}")
        print(f"checkpoint lsn:     {summary['checkpoint_lsn']}")
        print(f"last lsn:           {summary['last_lsn']}")
        print(f"records replayed:   {summary['records_replayed']}")
        print(f"torn tail:          {summary['torn_tail_truncated']}")
        print(f"committed txns:     {summary['committed']}")
        print(
            f"aborted in flight:  {summary['aborted_in_flight']} "
            f"(cascaded: {summary['cascaded_aborts']})"
        )
        print(f"cascaded commits:   {summary['cascaded_commits']}")
        print(f"recovery time:      {summary['recovery_ms']} ms")
        if args.verify:
            status = "VERIFIED" if result.verified else "FAILED"
            print(f"verification:       {status}")
            for violation in summary["violations"]:
                print(f"  violation: {violation}")
    if args.verify and not result.verified:
        return 1
    return 0


def _recover_sharded_layout(args: argparse.Namespace, registry) -> int:
    """``repro recover`` over a sharded WAL base (``<dir>/shardN``)."""
    import json

    from .durability import recover_sharded

    result = recover_sharded(
        args.wal_dir,
        verify=args.verify,
        strict=args.strict,
        registry=registry,
    )
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"wal dir:            {args.wal_dir} (sharded)")
        print(f"shards:             {len(result.shards)}")
        for index in sorted(result.shards):
            shard = result.shards[index].summary()
            print(
                f"  shard{index}: last lsn {shard['last_lsn']}, "
                f"replayed {shard['records_replayed']}, "
                f"committed={shard['committed']}, "
                f"aborted in flight={len(shard['aborted_in_flight'])}"
            )
        if result.resolutions:
            print("in-doubt 2PC branches resolved:")
            for entry in result.resolutions:
                print(
                    f"  {entry['txn']} (gid {entry['gid']}, "
                    f"shard {entry['shard']}, coordinator "
                    f"{entry['coordinator']}): {entry['decision']}"
                )
        else:
            print("in-doubt 2PC branches: none")
        if args.verify:
            status = "VERIFIED" if result.verified else "FAILED"
            print(f"verification:       {status}")
            for index in sorted(result.shards):
                for violation in result.shards[index].summary()[
                    "violations"
                ]:
                    print(f"  shard{index} violation: {violation}")
    if args.verify and not result.verified:
        return 1
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .workload import build_workload
    from .workload.driver import report_table, run_loadgen

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
        print(
            f"error: cannot reach server at {args.host}:{args.port} "
            f"({error})",
            file=sys.stderr,
        )
        return 2
    print(report_table(report))
    if args.output:
        report.write(args.output)
        print(f"bench -> {args.output}")
    if report.protocol_errors:
        print(
            f"error: {report.protocol_errors} wire-protocol errors",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .fuzz import run_corpus

    result = run_corpus(
        args.seed,
        args.runs,
        out_dir=args.out or None,
        shrink=not args.no_shrink,
        progress=lambda line: print(f"repro fuzz: {line}", flush=True),
    )
    report = result.report()
    print(
        f"repro fuzz: seeds {args.seed}..{args.seed + args.runs - 1}: "
        f"{result.passed}/{args.runs} passed, "
        f"{len(result.failures)} violations, "
        f"{len(result.harness_errors)} harness errors"
    )
    for failure in result.failures:
        where = failure.reproducer or "(not written)"
        print(
            f"repro fuzz: seed {failure.seed} failed "
            f"[{', '.join(failure.failed_oracles)}] — shrunk "
            f"{failure.op_count_before} -> {failure.op_count_after} ops "
            f"in {failure.shrink_runs} runs -> {where}"
        )
    for error in result.harness_errors:
        print(
            f"repro fuzz: seed {error['seed']} harness error:\n"
            f"{error['traceback']}",
            file=sys.stderr,
        )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"repro fuzz: report -> {args.report}")
    return result.exit_code


def _cmd_sim_list(args: argparse.Namespace) -> int:
    from .des import SCENARIOS

    for scenario in SCENARIOS.values():
        print(
            f"{scenario.name:26s} seed={scenario.seed:<3d} "
            f"clients={scenario.clients} followers={scenario.followers} "
            f"workload={scenario.workload}"
        )
        print(f"    {scenario.description}")
    return 0


def _sim_failed_checks(report: dict) -> list[str]:
    return sorted(
        name
        for section in report["epochs"]
        for name, verdict in section["oracles"].items()
        if not verdict["ok"]
    ) + sorted(
        name
        for name, verdict in report["invariants"].items()
        if not verdict["ok"]
    )


def _cmd_sim_run(args: argparse.Namespace) -> int:
    import json

    from .des import get_scenario, run_scenario

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario = scenario.with_overrides(seed=args.seed)
    report = run_scenario(scenario)
    metrics = report["metrics"]
    print(
        f"repro sim: {scenario.name} seed={scenario.seed} "
        f"digest={report['scenario_digest']}"
    )
    print(
        f"repro sim: epochs={len(report['epochs'])} "
        f"acked={metrics['commits_acked']} "
        f"abort_rate={metrics['abort_rate']:.3f} "
        f"throughput={metrics['throughput_commits_per_s']:.2f}/s "
        f"lag_lsn_p95={metrics['lag_lsn_p95']:g}"
    )
    if report["promotion"]:
        print(
            f"repro sim: promotion -> {report['promotion']['winner']} "
            f"(applied_lsn={report['promotion']['promoted_from_lsn']})"
        )
    failed = _sim_failed_checks(report)
    if report["deadlock"]:
        print(f"repro sim: DEADLOCK: {report['deadlock']}")
    for name in failed:
        print(f"repro sim: FAILED check: {name}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"repro sim: report -> {args.report}")
    print(f"repro sim: {'ok' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _floats_arg(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ints_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _cmd_sim_sweep(args: argparse.Namespace) -> int:
    import json

    from .des import get_scenario, run_sweep

    try:
        base = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if args.seed is not None:
        base = base.with_overrides(seed=args.seed)
    doc = run_sweep(
        base,
        nodes=args.nodes,
        partition_rates=args.partition_rates,
        workloads=(
            [w for w in args.workloads.split(",") if w.strip()]
            if args.workloads
            else None
        ),
        latencies=args.latencies,
    )
    for cell in doc["cells"]:
        status = "ok" if cell["ok"] else "FAILED"
        print(
            f"repro sim sweep: {cell['scenario']:40s} {status} "
            f"thr={cell['metrics']['throughput_commits_per_s']:8.2f}/s "
            f"abort={cell['metrics']['abort_rate']:.3f} "
            f"lag_p95={cell['metrics']['lag_lsn_p95']:g}"
        )
        for name in cell["failed_checks"]:
            print(f"repro sim sweep:   FAILED check: {name}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"repro sim sweep: wrote {args.output}")
    print(
        f"repro sim sweep: {len(doc['cells'])} cells, "
        f"{'ok' if doc['ok'] else 'FAILED'}"
    )
    return 0 if doc["ok"] else 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    import json

    from .fuzz import EXIT_HARNESS_ERROR, load_reproducer, replay_file

    try:
        _, expected = load_reproducer(args.file)
        result, matches = replay_file(args.file)
    except FileNotFoundError:
        print(f"error: no reproducer {args.file!r}", file=sys.stderr)
        return EXIT_HARNESS_ERROR
    except (ValueError, KeyError) as error:
        print(
            f"error: {args.file!r} is not a reproducer ({error})",
            file=sys.stderr,
        )
        return EXIT_HARNESS_ERROR
    print(
        f"repro fuzz replay: seed {result.plan.seed}, "
        f"{result.plan.op_count} ops, expected failure "
        f"[{', '.join(expected) or 'none'}]"
    )
    for name, verdict in result.report["oracles"].items():
        status = "ok" if verdict["ok"] else "FAILED"
        print(f"  {name:20s} {status}")
        for detail in verdict["details"]:
            print(f"      {detail}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(result.report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"repro fuzz replay: report -> {args.report}")
    if matches and expected:
        print("repro fuzz replay: failure reproduced")
        return 0
    if not expected:
        return 0 if result.ok else 1
    print(
        "repro fuzz replay: failure did NOT reproduce "
        f"(got [{', '.join(result.failed_oracles) or 'clean run'}])"
    )
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Korth & Speegle (SIGMOD 1988), 'Formal Model of "
            "Correctness Without Serializability' — reproduction tools"
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    classify = sub.add_parser(
        "classify", help="classify a schedule into the Section-4 classes"
    )
    classify.add_argument(
        "schedule", help='e.g. "r1(x) w1(x) r2(x) r2(y) w2(y)"'
    )
    classify.add_argument(
        "--objects",
        help='conjunct objects, e.g. "x;y" or "x,y;z" (default: one conjunct)',
    )
    classify.set_defaults(func=_cmd_classify)

    examples = sub.add_parser(
        "examples", help="verify the paper's worked examples"
    )
    examples.set_defaults(func=_cmd_examples)

    census = sub.add_parser("census", help="the Figure-2 census")
    census.add_argument(
        "--random", type=int, default=0,
        help="classify N random schedules instead of the exhaustive census",
    )
    census.add_argument("--transactions", type=int, default=3)
    census.add_argument("--ops", type=int, default=3)
    census.add_argument("--seed", type=int, default=0)
    census.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="stripe the exhaustive census over N worker processes "
        "(must be >= 1)",
    )
    census.add_argument(
        "--limit", type=int, default=None,
        help="cap the number of interleavings examined",
    )
    census.add_argument(
        "--exact", action="store_true",
        help="run every class tester on every schedule "
        "(disable the staged fast path)",
    )
    census.set_defaults(func=_cmd_census)

    admission = sub.add_parser(
        "admission", help="the admitted-interleavings ladder (D1)"
    )
    admission.set_defaults(func=_cmd_admission)

    showdown = sub.add_parser(
        "showdown", help="the P1 scheduler comparison"
    )
    showdown.add_argument("--designers", type=int, default=6)
    showdown.add_argument("--think", type=float, default=100.0)
    showdown.add_argument("--seed", type=int, default=3)
    showdown.add_argument(
        "--trace",
        metavar="FILE",
        help="also record the korth-speegle run's trace to FILE (JSONL)",
    )
    showdown.set_defaults(func=_cmd_showdown)

    trace = sub.add_parser(
        "trace",
        help="record or replay a transaction-lifecycle trace (JSONL)",
    )
    trace.add_argument("file", help="JSONL trace file to replay (or write)")
    trace.add_argument(
        "--record",
        action="store_true",
        help="run a CAD workload and write its trace to FILE first",
    )
    trace.add_argument(
        "--scheduler",
        default="korth-speegle",
        help="scheduler to record (default: korth-speegle)",
    )
    trace.add_argument("--designers", type=int, default=6)
    trace.add_argument("--think", type=float, default=100.0)
    trace.add_argument("--seed", type=int, default=3)
    trace.add_argument(
        "--timeline",
        action="store_true",
        help="with --record: also print the timeline after recording",
    )
    trace.add_argument("--txn", help="only spans of this transaction")
    trace.add_argument(
        "--kind", help='only these span kinds, e.g. "wait,validate"'
    )
    trace.add_argument(
        "--stats",
        action="store_true",
        help="print span counts by kind instead of the timeline",
    )
    trace.set_defaults(func=_cmd_trace)

    dot = sub.add_parser(
        "dot", help="export precedence graphs as Graphviz DOT"
    )
    dot.add_argument("schedule")
    dot.add_argument(
        "--graph",
        choices=("conflict", "mv", "cpc"),
        default="conflict",
    )
    dot.add_argument("--objects")
    dot.set_defaults(func=_cmd_dot)

    serve = sub.add_parser(
        "serve",
        help="run the Section-5 manager as a JSON-lines TCP service",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7455,
        help="TCP port (0 = ephemeral; default 7455)",
    )
    serve.add_argument(
        "--workload", choices=("cad", "oltp"), default="cad",
        help="workload whose database schema to serve "
        "(must match the loadgen's)",
    )
    serve.add_argument("--transactions", type=_positive_int, default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--key-dist", choices=("uniform", "zipf"), default="uniform",
        help="entity-access distribution of the workload schema/scripts "
        "(must match the loadgen's)",
    )
    serve.add_argument(
        "--shards", type=_positive_int, default=1,
        help="partition the entity space across this many single-"
        "threaded shards (cross-shard transactions use 2PC; with "
        "--wal-dir each shard logs under <dir>/shardN; default 1)",
    )
    serve.add_argument(
        "--queue-size", type=_positive_int, default=256,
        help="command-queue bound; overflow answers BUSY",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=5.0,
        help="seconds a request may stay queued or parked",
    )
    serve.add_argument(
        "--session-timeout", type=float, default=300.0,
        help="idle seconds before a connection is closed",
    )
    serve.add_argument(
        "--wal-dir", default=None,
        help="durability: WAL + checkpoint directory (recovered on "
        "start; omit for a purely in-memory server)",
    )
    serve.add_argument(
        "--flush-interval", type=float, default=0.005,
        help="group-commit fsync window in seconds "
        "(<= 0 = fsync every commit; default 0.005)",
    )
    serve.add_argument(
        "--checkpoint-every", type=_positive_int, default=512,
        help="WAL records between checkpoints (default 512)",
    )
    serve.add_argument(
        "--retain", type=_positive_int, default=3,
        help="checkpoints to retain (default 3)",
    )
    serve.add_argument(
        "--strict", action="store_true",
        help="run the manager in strict mode (ST histories; reads and "
        "writes block on uncommitted versions)",
    )
    serve.add_argument(
        "--wal-segment-bytes", type=int, default=0,
        help="roll the WAL to a fresh segment once the active one "
        "exceeds this many bytes (0 = roll only at checkpoints)",
    )
    serve.add_argument(
        "--repl-port", type=int, default=None,
        help="replication: accept follower connections on this port "
        "(0 = ephemeral; requires --wal-dir)",
    )
    serve.add_argument(
        "--sync-replicas", type=int, default=0,
        help="replication: withhold commit replies until this many "
        "followers have fsynced the commit (default 0 = async)",
    )
    serve.add_argument(
        "--follow-of", default=None, metavar="HOST:PORT",
        help="run as a follower of the primary's replication listener "
        "at HOST:PORT (requires --wal-dir; mutating ops redirect)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve /metrics (Prometheus text), /stats and "
        "/healthz over HTTP on this port (0 = ephemeral; omit to "
        "disable)",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="live tracing: stream completed spans to FILE (JSONL, "
        "replayable with 'repro trace')",
    )
    serve.add_argument(
        "--trace-ring", type=_positive_int, default=4096,
        help="span ring-buffer capacity for --trace-out (default 4096)",
    )
    serve.add_argument(
        "--slow-ms", type=float, default=None,
        help="live tracing: dump the span tree of any transaction "
        "slower than this many milliseconds to --slow-log",
    )
    serve.add_argument(
        "--slow-log", default="slow-txns.jsonl", metavar="FILE",
        help="slow-transaction log path (default slow-txns.jsonl)",
    )
    serve.set_defaults(func=_cmd_serve)

    top = sub.add_parser(
        "top",
        help="live dashboard over a running server's stats command",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7455)
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between polls (default 1.0)",
    )
    top.add_argument(
        "--iterations", type=_positive_int, default=None,
        help="stop after N frames (default: run until interrupted)",
    )
    top.set_defaults(func=_cmd_top)

    promote = sub.add_parser(
        "promote",
        help="fail over: elect the highest-applied follower among "
        "--peer nodes and promote it (exit 0 = promoted + verified)",
    )
    promote.add_argument(
        "--peer", action="append", required=True, metavar="HOST:PORT",
        help="a candidate node's client address (repeatable)",
    )
    promote.add_argument(
        "--listen-port", type=int, default=None,
        help="have the promoted node also bind this client port "
        "(the dead primary's)",
    )
    promote.add_argument(
        "--timeout", type=float, default=10.0,
        help="per-peer connect/request timeout in seconds",
    )
    promote.set_defaults(func=_cmd_promote)

    recover = sub.add_parser(
        "recover",
        help="run verified crash recovery over a WAL directory",
    )
    recover.add_argument(
        "--wal-dir", required=True,
        help="the WAL + checkpoint directory to recover",
    )
    recover.add_argument(
        "--verify", action=argparse.BooleanOptionalAction, default=True,
        help="verify the recovered state (committed-prefix equality + "
        "consistency predicate); exit 1 on failure",
    )
    recover.add_argument(
        "--strict", action="store_true",
        help="materialize the recovered manager in strict mode",
    )
    recover.add_argument(
        "--json", action="store_true",
        help="print the recovery summary as JSON",
    )
    recover.set_defaults(func=_cmd_recover)

    loadgen = sub.add_parser(
        "loadgen",
        help="replay a workload against a running server",
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=7455)
    loadgen.add_argument(
        "--clients", type=_positive_int, default=8,
        help="number of concurrent connections",
    )
    loadgen.add_argument(
        "--workload", choices=("cad", "oltp"), default="cad",
        help="workload to replay (must match the server's)",
    )
    loadgen.add_argument("--transactions", type=_positive_int, default=16)
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--key-dist", choices=("uniform", "zipf"), default="uniform",
        help="entity-access distribution (uniform keeps the historical "
        "stream; zipf skews contention onto hot entities; must match "
        "the server's)",
    )
    loadgen.add_argument(
        "--think", type=float, default=0.0,
        help="scripted think time in virtual units (see --think-scale)",
    )
    loadgen.add_argument(
        "--think-scale", type=float, default=0.0,
        help="wall seconds per virtual think unit (0 = no sleeping)",
    )
    loadgen.add_argument(
        "--max-restarts", type=_positive_int, default=8,
        help="restart attempts per script before giving up",
    )
    loadgen.add_argument(
        "--connect-retries", type=int, default=25,
        help="connection attempts while waiting for the server",
    )
    loadgen.add_argument(
        "--output", default="BENCH_server.json",
        help="bench JSON path ('' = don't write)",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    fuzz = sub.add_parser(
        "fuzz",
        help="run the deterministic concurrency fuzzer "
        "(exit 0 = clean, 1 = invariant violation, 2 = harness error)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=1,
        help="first seed of the corpus range (default 1)",
    )
    fuzz.add_argument(
        "--runs", type=_positive_int, default=200,
        help="number of consecutive seeds to run (default 200)",
    )
    fuzz.add_argument(
        "--out", default="fuzz-failures",
        help="directory for minimized reproducer JSON files "
        "('' = don't write)",
    )
    fuzz.add_argument(
        "--report", default=None,
        help="also write the corpus report as JSON to this path",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="save failing plans as-is instead of delta-debugging them",
    )
    fuzz.set_defaults(func=_cmd_fuzz)
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command")
    fuzz_replay = fuzz_sub.add_parser(
        "replay",
        help="re-execute a saved reproducer bit-for-bit "
        "(exit 0 = expected failure reproduced)",
    )
    fuzz_replay.add_argument("file", help="reproducer JSON file")
    fuzz_replay.add_argument(
        "--report", default=None,
        help="write the replayed run's full report as JSON to this path",
    )
    fuzz_replay.set_defaults(func=_cmd_fuzz_replay)

    sim = sub.add_parser(
        "sim",
        help="multi-node discrete-event cluster simulator "
        "(exit 0 = all checks pass, 1 = violation, 2 = usage error)",
    )
    sim_sub = sim.add_subparsers(dest="sim_command", required=True)
    sim_list = sim_sub.add_parser(
        "list", help="list the shipped adversarial scenarios"
    )
    sim_list.set_defaults(func=_cmd_sim_list)
    sim_run = sim_sub.add_parser(
        "run", help="run one scenario and validate it against the oracles"
    )
    sim_run.add_argument(
        "--scenario", required=True,
        help="scenario name (see 'repro sim list')",
    )
    sim_run.add_argument(
        "--seed", type=int, default=None,
        help="override the scenario's seed",
    )
    sim_run.add_argument(
        "--report", default=None,
        help="write the full run report as JSON to this path",
    )
    sim_run.set_defaults(func=_cmd_sim_run)
    sim_sweep = sim_sub.add_parser(
        "sweep",
        help="grid a scenario over cluster size / partition rate / "
        "workload / latency and write BENCH_sim.json",
    )
    sim_sweep.add_argument(
        "--scenario", default="hot_key_storm",
        help="base scenario for the grid (default hot_key_storm)",
    )
    sim_sweep.add_argument(
        "--seed", type=int, default=None,
        help="override the base scenario's seed",
    )
    sim_sweep.add_argument(
        "--nodes", type=_ints_arg, default=None,
        help="comma-separated total node counts (default 3,6)",
    )
    sim_sweep.add_argument(
        "--partition-rates", type=_floats_arg, default=None,
        help="comma-separated partition rates (default 0,0.3)",
    )
    sim_sweep.add_argument(
        "--workloads", default=None,
        help="comma-separated workload kinds (default: base scenario's)",
    )
    sim_sweep.add_argument(
        "--latencies", type=_floats_arg, default=None,
        help="comma-separated link latencies in virtual seconds",
    )
    sim_sweep.add_argument(
        "--output", default="BENCH_sim.json",
        help="bench JSON path ('' = don't write)",
    )
    sim_sweep.set_defaults(func=_cmd_sim_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that exited early.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
