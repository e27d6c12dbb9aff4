"""The P1 simulator: the scheduler comparison and lifecycle traces."""

from __future__ import annotations

import argparse
import sys

from .common import arg, command


#: The CAD workload both commands run.
CAD = (
    arg("--designers", type=int, default=6),
    arg("--think", type=float, default=100.0),
    arg("--seed", type=int, default=3),
)


def _cad_workload(args: argparse.Namespace):
    from ..workload import cad_workload

    return cad_workload(
        num_designers=args.designers, think_time=args.think, seed=args.seed
    )


def _record(factory, workload, seed: int, path: str):
    """Run one scheduler on ``workload`` into a ``RecordingTracer`` and
    write its spans to ``path``; returns (span count, run metrics)."""
    from ..obs import RecordingTracer, write_jsonl
    from ..sim import run_one

    tracer = RecordingTracer()
    metrics = run_one(factory, workload, seed=seed, tracer=tracer)
    return write_jsonl(list(tracer.spans), path), metrics


@command(
    "showdown",
    "the P1 scheduler comparison",
    *CAD,
    arg("--trace", metavar="FILE",
        help="also record the korth-speegle run's trace to FILE (JSONL)"),
)
def showdown(args: argparse.Namespace) -> int:
    from ..sim import DEFAULT_SCHEDULERS, compare_schedulers, metrics_table

    workload = _cad_workload(args)
    print(f"workload: {workload.name}")
    print(metrics_table(compare_schedulers(workload, seed=args.seed)))
    if args.trace:
        count, _ = _record(
            DEFAULT_SCHEDULERS["korth-speegle"], workload, args.seed, args.trace
        )
        print(f"trace: {count} spans (korth-speegle) -> {args.trace}")
    return 0


@command(
    "trace",
    "record or replay a transaction-lifecycle trace (JSONL)",
    arg("file", help="JSONL trace file to replay (or write)"),
    arg("--record", action="store_true",
        help="run a CAD workload and write its trace to FILE first"),
    arg("--scheduler", default="korth-speegle",
        help="scheduler to record (default: korth-speegle)"),
    *CAD,
    arg("--timeline", action="store_true",
        help="with --record: also print the timeline after recording"),
    arg("--txn", help="only spans of this transaction"),
    arg("--kind", help='only these span kinds, e.g. "wait,validate"'),
    arg("--stats", action="store_true",
        help="print span counts by kind instead of the timeline"),
)
def trace(args: argparse.Namespace) -> int:
    from ..obs import filter_spans, load_jsonl, render_timeline, timeline_stats

    if args.record:
        from ..sim import DEFAULT_SCHEDULERS

        factory = DEFAULT_SCHEDULERS.get(args.scheduler)
        if factory is None:
            known = ", ".join(sorted(DEFAULT_SCHEDULERS))
            print(
                f"error: unknown scheduler {args.scheduler!r} "
                f"(choose from: {known})",
                file=sys.stderr,
            )
            return 2
        workload = _cad_workload(args)
        count, metrics = _record(factory, workload, args.seed, args.file)
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
