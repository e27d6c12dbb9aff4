"""One benchmark for the commit path.

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--repeat K] [--smoke] [--out FILE]

Spawns the system under test the way users run it (``python -m repro
serve`` on loopback, ephemeral ports, temporary WAL directories inside
the checkout), drives it closed-loop over two connections, prints every
metric by name with its unit, checks that the outputs are correct, and
exits non-zero if a check fails.  ``--trace 1`` (alias ``--traced``)
adds the in-process span-recording run and prints the per-layer
metrics.  The last line of standard output is one JSON object,
``{"correct", "attempted", "failed", "metrics"}``, for the last
workload run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"

#: A run that has not finished by then is stuck; the driver's own limit
#: is 180 s.  Servers are reaped on the way out.
WATCHDOG_S = 170


def _import_suite():
    """Import the suite (and ``repro``) or explain what is missing."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(
            f"error: {SRC_DIR}/repro not found - the benchmark builds "
            "nothing of its own and needs the repository's sources"
        )
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(SUITE_DIR))
    import metrics
    import scenarios
    import servers
    import workloads

    return metrics, scenarios, servers, workloads


def _commit() -> str | None:
    """The checkout's commit, when it is a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def envelope(args: argparse.Namespace) -> dict:
    """How the numbers were made; travels with them in ``--out``."""
    return {
        "suite": "benchmarks/suite",
        "commit": _commit(),
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "method": {
            "loop": "closed",
            "connections": 2,
            "traced_connections": 1,
            "deployment": "python -m repro serve subprocesses, loopback",
            "work": "fixed per workload (see sizes), scaled by --seconds",
            "flush_policy": {
                "oltp_sustained": "group commit, 5 ms window (default)",
                "cad_sharded": "group commit, 5 ms window; PREPARE fsyncs",
                "oltp_sync_repl": "fsync every commit (--flush-interval 0)",
            },
            "crash_model": "SIGKILL (page cache survives), not power loss",
        },
    }


def run_workload(mods, name: str, args: argparse.Namespace) -> dict:
    """Run one workload (and its traced twin if asked); return its record."""
    metrics, scenarios, servers, workloads = mods
    leftovers = servers.live_children()
    if leftovers:
        raise RuntimeError(f"children left over before {name}: {leftovers}")
    sizes = workloads.sizes_for(name, args.seconds, args.smoke)
    traced = bool(args.trace)
    shares = None
    if name == "census_random":
        outcome = scenarios.run_census(args.seed, sizes, traced)
        layers = metrics.outside_layers(outcome)
    else:
        outcome = asyncio.run(scenarios.run_external(name, args.seed, sizes))
        layers = metrics.outside_layers(outcome)
        if traced:
            plain = asyncio.run(
                scenarios.run_inprocess(name, args.seed, sizes, False)
            )
            spanned = asyncio.run(
                scenarios.run_inprocess(name, args.seed, sizes, True)
            )
            more, shares = metrics.traced_layers(spanned, plain)
            layers.update(more)
            outcome.checks.extend(plain.checks + spanned.checks)
            trace_dir = servers.TMP_DIR / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            spanned.spans.write_jsonl(
                str(trace_dir / f"{name}-seed{args.seed}.jsonl")
            )
    end_to_end = metrics.end_to_end(outcome, small_sample_tails=args.smoke)
    tally = outcome.tally
    return {
        "workload": name,
        "seed": args.seed,
        "sizes": sizes,
        "traced": traced,
        "end_to_end": metrics.fill(end_to_end, metrics.END_TO_END),
        "per_layer": metrics.fill(layers, metrics.PER_LAYER),
        "layer_share_of_request_time": shares,
        "checks": [vars(check) for check in outcome.checks],
        "counts": {
            "scripts": tally.scripts,
            "attempts": tally.attempts,
            "committed": tally.committed,
            "aborted_attempts": tally.aborted_attempts,
            "gave_up": tally.gave_up,
            "requests": tally.requests,
            "wire_faults": tally.wire_faults,
            "cross_shard_predicted": (
                len(outcome.extra["cross_tags"])
                if "cross_tags" in outcome.extra else None
            ),
            "stale_read_retries": outcome.extra.get("stale_retries"),
            "wall_s": outcome.wall_s,
        },
        "samples": metrics.sample_counts(outcome),
        "attempted": tally.scripts,
        "failed": metrics.failed_count(outcome),
    }


def print_record(metrics, record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"sizes={record['sizes']}")
    for section in ("end_to_end", "per_layer"):
        if section == "per_layer" and not record["traced"]:
            shown = {k: v for k, v in record[section].items() if v is not None}
        else:
            shown = record[section]
        for name, value in shown.items():
            text = "null" if value is None else f"{value:.6g}"
            print(f"  {name:<42} {text:>14} {metrics.unit_of(name)}")
    if record["layer_share_of_request_time"]:
        shares = ", ".join(
            f"{layer} {share:.1%}"
            for layer, share in record["layer_share_of_request_time"].items()
        )
        print(f"  traced request time by layer: {shares}")
    counts = record["counts"]
    print(
        f"  scripts {counts['scripts']} attempts {counts['attempts']} "
        f"committed {counts['committed']} aborted-attempts "
        f"{counts['aborted_attempts']} gave-up {counts['gave_up']} "
        f"requests {counts['requests']} wall {counts['wall_s']:.2f} s"
    )
    for check in record["checks"]:
        if not check["ok"]:
            print(f"  CHECK FAILED {check['name']}: {check['detail']}")
    passed = sum(check["ok"] for check in record["checks"])
    print(f"  checks passed {passed}/{len(record['checks'])}")


def contract_line(metrics, record: dict) -> dict:
    """The driver's result object for one workload run.

    ``--trace 0`` carries the end-to-end metrics, ``--trace 1`` the
    per-layer ones (those ``BENCHMARK.json`` lists, when the workload
    is one of its workloads).  A per-layer metric the workload has no
    quantity for is reported as 0; an end-to-end one may not be missing.
    """
    in_contract = record["workload"] in metrics.CONTRACT_WORKLOADS
    if record["traced"]:
        names = (
            metrics.CONTRACT_PER_LAYER if in_contract else metrics.PER_LAYER
        )
        values = {name: record["per_layer"][name] or 0 for name in names}
    else:
        names = (
            metrics.CONTRACT_END_TO_END
            if in_contract
            else [n for n, v in record["end_to_end"].items() if v is not None]
        )
        values = {name: record["end_to_end"][name] for name in names}
        missing = [name for name, value in values.items() if value is None]
        if missing:
            raise ValueError(
                f"{record['workload']}: no value for {missing} - too few "
                "samples for the percentile rule; use --seconds >= 10"
            )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.unit_of(name)}
            for name, value in values.items()
        },
    }


def smoke_gaps(metrics, records: list[dict]) -> list[str]:
    """Catalogue metrics that no smoke workload emitted."""
    gaps = []
    for section, catalogue in (
        ("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)
    ):
        for name in catalogue:
            if all(record[section][name] is None for record in records):
                gaps.append(name)
    return gaps


def _watchdog(signum, frame) -> None:
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def _terminated(signum, frame) -> None:
    # Unwind like Ctrl-C does, so the Fleet reaps its servers.
    raise KeyboardInterrupt


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload by name (default: all six)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the fixed work: a run measures about "
                        "this long on the seed host (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run each workload this many times (for compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/20 size, traced; asserts "
                        "every named metric is emitted and every check passes")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write envelope + every run's record as JSON")
    args = parser.parse_args(argv)
    mods = _import_suite()
    metrics, _, servers, workloads = mods
    if args.smoke:
        args.trace = 1
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")

    signal.signal(signal.SIGALRM, _watchdog)
    signal.signal(signal.SIGTERM, _terminated)
    records: list[dict] = []
    for _ in range(args.repeat):
        for name in names:
            signal.alarm(WATCHDOG_S)
            try:
                record = run_workload(mods, name, args)
            finally:
                signal.alarm(0)
            print_record(metrics, record)
            records.append(record)

    failed = sum(record["failed"] for record in records)
    if args.smoke:
        gaps = smoke_gaps(metrics, records)
        for name in gaps:
            print(f"SMOKE: metric {name} was emitted by no workload")
        failed += len(gaps)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"envelope": envelope(args), "runs": records},
                handle, indent=1, default=sorted,
            )
            handle.write("\n")
    leftovers = servers.live_children()
    if leftovers:
        print(f"children left running: {leftovers}", file=sys.stderr)
        failed += 1
    try:
        print(json.dumps(contract_line(metrics, records[-1])))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
