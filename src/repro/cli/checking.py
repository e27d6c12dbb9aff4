"""The deterministic checkers: the concurrency fuzzer and the
discrete-event cluster simulator."""

from __future__ import annotations

import argparse
import sys

from .common import arg, command, positive_int, write_json


@command(
    "replay",
    "re-execute a saved reproducer bit-for-bit (exit 0 = "
    "expected failure reproduced)",
    arg("file", help="reproducer JSON file"),
    arg("--report", default=None,
        help="write the replayed run's full report as JSON to this path"),
)
def fuzz_replay(args: argparse.Namespace) -> int:
    from ..fuzz import EXIT_HARNESS_ERROR, load_reproducer, replay_file
    from ..fuzz.plan import PlanError

    try:
        _, expected = load_reproducer(args.file)
        result, matches = replay_file(args.file)
    except FileNotFoundError:
        print(f"error: no reproducer {args.file!r}", file=sys.stderr)
        return EXIT_HARNESS_ERROR
    except PlanError as error:
        print(f"error: {args.file!r}: invalid plan: {error}", file=sys.stderr)
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
        write_json(args.report, result.report)
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


@command(
    "fuzz",
    "run the deterministic concurrency fuzzer (exit 0 = clean, "
    "1 = invariant violation, 2 = harness error)",
    arg("--seed", type=int, default=1,
        help="first seed of the corpus range (default 1)"),
    arg("--runs", type=positive_int, default=200,
        help="number of consecutive seeds to run (default 200)"),
    arg("--out", default="fuzz-failures",
        help="directory for minimized reproducer JSON files ('' = don't "
        "write)"),
    arg("--report", default=None,
        help="also write the corpus report as JSON to this path"),
    arg("--no-shrink", action="store_true",
        help="save failing plans as-is instead of delta-debugging them"),
    commands=(fuzz_replay,),
)
def fuzz(args: argparse.Namespace) -> int:
    from ..fuzz import run_corpus

    result = run_corpus(
        args.seed,
        args.runs,
        out_dir=args.out or None,
        shrink=not args.no_shrink,
        progress=lambda line: print(f"repro fuzz: {line}", flush=True),
    )
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
        write_json(args.report, result.report())
        print(f"repro fuzz: report -> {args.report}")
    return result.exit_code


@command("list", "list the shipped adversarial scenarios")
def sim_list(args: argparse.Namespace) -> int:
    from ..des import SCENARIOS

    for scenario in SCENARIOS.values():
        print(
            f"{scenario.name:26s} seed={scenario.seed:<3d} "
            f"clients={scenario.clients} followers={scenario.followers} "
            f"workload={scenario.workload}"
        )
        print(f"    {scenario.description}")
    return 0


def _scenario(args: argparse.Namespace):
    """``--scenario`` with its ``--seed`` override, or ``None`` after
    reporting an unknown name."""
    from ..des import get_scenario

    try:
        scenario = get_scenario(args.scenario)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return None
    if args.seed is not None:
        scenario = scenario.with_overrides(seed=args.seed)
    return scenario


@command(
    "run",
    "run one scenario and validate it against the oracles",
    arg("--scenario", required=True,
        help="scenario name (see 'repro sim list')"),
    arg("--seed", type=int, default=None, help="override the scenario's seed"),
    arg("--report", default=None,
        help="write the full run report as JSON to this path"),
)
def sim_run(args: argparse.Namespace) -> int:
    from ..des import run_scenario
    from ..fuzz.runner import failed

    scenario = _scenario(args)
    if scenario is None:
        return 2
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
    if report["deadlock"]:
        print(f"repro sim: DEADLOCK: {report['deadlock']}")
    epochs = (section["oracles"] for section in report["epochs"])
    for name in failed(*epochs) + failed(report["invariants"]):
        print(f"repro sim: FAILED check: {name}")
    if args.report:
        write_json(args.report, report)
        print(f"repro sim: report -> {args.report}")
    print(f"repro sim: {'ok' if report['ok'] else 'FAILED'}")
    return 0 if report["ok"] else 1


def _floats_arg(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _ints_arg(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


@command(
    "sweep",
    "grid a scenario over cluster size / partition rate / "
    "workload / latency and write BENCH_sim.json",
    arg("--scenario", default="hot_key_storm",
        help="base scenario for the grid (default hot_key_storm)"),
    arg("--seed", type=int, default=None,
        help="override the base scenario's seed"),
    arg("--nodes", type=_ints_arg, default=None,
        help="comma-separated total node counts (default 3,6)"),
    arg("--partition-rates", type=_floats_arg, default=None,
        help="comma-separated partition rates (default 0,0.3)"),
    arg("--workloads", default=None,
        help="comma-separated workload kinds (default: base scenario's)"),
    arg("--latencies", type=_floats_arg, default=None,
        help="comma-separated link latencies in virtual seconds"),
    arg("--output", default="BENCH_sim.json",
        help="bench JSON path ('' = don't write)"),
)
def sim_sweep(args: argparse.Namespace) -> int:
    from ..des import run_sweep

    base = _scenario(args)
    if base is None:
        return 2
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
        write_json(args.output, doc)
        print(f"repro sim sweep: wrote {args.output}")
    print(
        f"repro sim sweep: {len(doc['cells'])} cells, "
        f"{'ok' if doc['ok'] else 'FAILED'}"
    )
    return 0 if doc["ok"] else 1
