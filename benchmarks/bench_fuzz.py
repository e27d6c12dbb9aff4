"""Fuzzer throughput and shrink cost (writes BENCH_fuzz.json).

Two measurements of the deterministic fuzzer:

1. Corpus throughput — wall seconds per seeded run over a 100-seed
   corpus (every oracle evaluated), broken down by run flavor
   (in-memory / durable / crash).  This bounds how large a CI smoke
   corpus can be: the 200-run smoke job must fit its 90-second budget
   with a wide margin.
2. Shrink cost — with a lost-commit regression injected, the number of
   delta-debugging runs and wall seconds to minimize a failing plan,
   plus the reduction achieved (ops before -> after).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.fuzz import generate_plan, run_corpus, run_seed, shrink_plan
from repro.fuzz.runner import execute_plan
from repro.server.protocol import ok_response
from repro.server.session import CommandDispatcher

from conftest import report

ROOT = Path(__file__).resolve().parent.parent

CORPUS_RUNS = 100
SHRINK_SEEDS = (2, 3, 5)


def _bench_corpus() -> dict:
    start = time.perf_counter()
    result = run_corpus(1, CORPUS_RUNS, out_dir=None, shrink=False)
    seconds = time.perf_counter() - start
    flavors = {"memory": 0, "durable": 0, "crash": 0}
    for seed in range(1, CORPUS_RUNS + 1):
        plan = generate_plan(seed)
        if plan.crash_point is not None:
            flavors["crash"] += 1
        elif plan.durable:
            flavors["durable"] += 1
        else:
            flavors["memory"] += 1
    return {
        "runs": CORPUS_RUNS,
        "passed": result.passed,
        "seconds": round(seconds, 4),
        "runs_per_second": round(CORPUS_RUNS / seconds, 1),
        "ms_per_run": round(1000 * seconds / CORPUS_RUNS, 2),
        "flavors": flavors,
        "exit_code": result.exit_code,
    }


def _ack_without_commit(self, command, txn):
    gated = self._commit_gate(command, txn)
    if gated is not None:
        return gated
    self._count("server.txns.committed")
    return ok_response(command.request_id, outcome="committed")


def _bench_shrink() -> list[dict]:
    original = CommandDispatcher._op_commit
    CommandDispatcher._op_commit = _ack_without_commit
    entries = []
    try:
        for seed in SHRINK_SEEDS:
            failing = run_seed(seed)
            if failing.ok:
                continue
            signature = set(failing.failed_oracles)

            def reproduces(candidate):
                return signature <= set(
                    execute_plan(candidate).failed_oracles
                )

            start = time.perf_counter()
            small, runs = shrink_plan(failing.plan, reproduces)
            seconds = time.perf_counter() - start
            entries.append(
                {
                    "seed": seed,
                    "failed_oracles": sorted(signature),
                    "ops_before": failing.plan.op_count,
                    "ops_after": small.op_count,
                    "shrink_runs": runs,
                    "seconds": round(seconds, 4),
                }
            )
    finally:
        CommandDispatcher._op_commit = original
    return entries


def test_fuzz_throughput_and_shrink_write_benchmark_json():
    corpus = _bench_corpus()
    shrink = _bench_shrink()

    payload = {"corpus": corpus, "shrink": shrink}
    (ROOT / "BENCH_fuzz.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    # The production code must be clean: every corpus run passes.
    assert corpus["exit_code"] == 0
    assert corpus["passed"] == CORPUS_RUNS
    # The CI smoke corpus (200 runs) must fit its 90s budget with
    # margin: require at least ~10 runs/second here.
    assert corpus["runs_per_second"] > 10, corpus
    # The injected regression is caught and shrinks to small plans.
    assert shrink, "lost-commit injection produced no failing seed"
    for entry in shrink:
        assert entry["ops_after"] <= 6, entry
        assert entry["ops_after"] <= entry["ops_before"]

    lines = [
        f"corpus: {corpus['runs']} runs in {corpus['seconds']:.2f}s "
        f"({corpus['runs_per_second']:.0f} runs/s, "
        f"{corpus['ms_per_run']:.1f} ms/run) "
        f"flavors={corpus['flavors']}"
    ]
    for entry in shrink:
        lines.append(
            f"shrink seed {entry['seed']}: {entry['ops_before']} -> "
            f"{entry['ops_after']} ops in {entry['shrink_runs']} runs "
            f"({entry['seconds']:.2f}s)"
        )
    report("F1: fuzzer throughput + shrink cost", "\n".join(lines))
