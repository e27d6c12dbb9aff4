"""Self-tests of the suite's own arithmetic (not collected by tier-1).

    python3 benchmarks/suite/test_suite.py        # or: pytest <this file>

They cover what a wrong benchmark would silently get wrong: the
percentile reporting rule, span self-time arithmetic on a hand-built
tree, generator determinism, and compare.py's verdicts.
"""

from __future__ import annotations

import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_DIR.parents[1] / "src"))
sys.path.insert(0, str(SUITE_DIR))

import json  # noqa: E402

import compare  # noqa: E402
import metrics  # noqa: E402
import spans as sp  # noqa: E402
import stats  # noqa: E402
import workloads as wl  # noqa: E402
from scenarios import script_digest  # noqa: E402


def test_percentile_rule_needs_ten_samples_beyond() -> None:
    # p99 leaves 1% of the sample beyond it: 1000 samples -> 10.
    assert not stats.supports(999, 99.0)
    assert stats.supports(1000, 99.0)
    assert stats.highest_supported(99) is None
    assert stats.highest_supported(100) == 90.0
    assert stats.highest_supported(200) == 95.0
    assert stats.highest_supported(1000) == 99.0
    assert stats.highest_supported(10_000) == 99.9
    samples = [float(value) for value in range(1, 1001)]
    assert stats.tail(samples[:999], 99.0) is None
    assert abs(stats.tail(samples, 99.0) - 990.01) < 1e-9
    assert stats.median(samples) == 500.5
    assert stats.median([]) is None


def test_span_self_time_on_a_hand_built_tree() -> None:
    # request [0, 10]
    #   manager.define [1, 7]
    #     wal.append [2, 5]
    #       wal.flush [3, 4]
    #   manager.checkpoint [7, 9]
    # wal.maybe_flush [11, 12]   (background: no request above it)
    tree = [
        ["request.define", 0.0, 10.0, None, 7],
        ["manager.define", 1.0, 7.0, 0, 7],
        ["wal.append", 2.0, 5.0, 1, 7],
        ["wal.flush", 3.0, 4.0, 2, 7],
        ["manager.checkpoint", 7.0, 9.0, 0, 7],
        ["wal.maybe_flush", 11.0, 12.0, None, None],
    ]
    assert sp.self_times(tree) == [2.0, 3.0, 2.0, 1.0, 2.0, 1.0]
    assert sp.root_of(tree) == [0, 0, 0, 0, 0, 5]
    layers = sp.layer_self_seconds(tree)
    assert layers == {"server": 2.0, "protocol": 3.0, "durability": 5.0}
    # The layers of a request sum to the request.
    assert sum(layers.values()) == tree[0][sp.END] - tree[0][sp.START]
    # define without its logging: 6 s minus the outermost WAL span (3 s).
    assert sp.exclusive_of_wal(tree)[1] == 3.0
    # The background span has no request above it and is left out.
    assert list(sp.layer_seconds_by_root(tree)) == [0]


def test_recorder_nests_by_stack_and_inherits_txn() -> None:
    recorder = sp.SpanRecorder()
    root = recorder.open("request.read", txn=42)
    child = recorder.open("manager.read")
    recorder.close(child)
    recorder.close(root)
    assert recorder.spans[child][sp.PARENT] == root
    assert recorder.spans[child][sp.TXN] == 42
    assert recorder.spans[root][sp.END] >= recorder.spans[child][sp.END]
    try:
        outer = recorder.open("a")
        recorder.open("b")
        recorder.close(outer)
    except RuntimeError:
        pass
    else:
        raise AssertionError("closing a non-innermost span must fail")


def test_generators_are_deterministic_in_the_seed() -> None:
    for workload in ("oltp_fresh", "oltp_sustained", "cad_coop",
                     "cad_sharded", "oltp_sync_repl"):
        sizes = wl.sizes_for(workload, smoke=True)
        assert script_digest(workload, 3, sizes) == script_digest(
            workload, 3, sizes
        ), workload
        assert script_digest(workload, 3, sizes) != script_digest(
            workload, 11, sizes
        ), workload
    assert wl.census_seeds(50, 3) == wl.census_seeds(50, 3)
    assert wl.census_seeds(50, 3) != wl.census_seeds(50, 11)


def test_scripts_carry_the_generators_bump_rule() -> None:
    script = next(
        script for script in wl.oltp_scripts(50, 3)
        if any(step[0] == "w" for step in script.steps)
    )
    write = next(step for step in script.steps if step[0] == "w")
    _, entity, base, delta = write
    assert entity in script.updates
    assert f"{base} >= 0" in script.input  # the base was read first
    assert 1 <= delta <= 4


def test_sizes_scale_with_seconds_and_smoke() -> None:
    assert wl.sizes_for("oltp_sustained", 10)["txns"] == (
        wl.SIZES["oltp_sustained"]["txns"]
    )
    assert wl.sizes_for("oltp_sustained", 20)["txns"] == (
        2 * wl.SIZES["oltp_sustained"]["txns"]
    )
    smoke = wl.sizes_for("cad_coop", smoke=True)
    assert smoke["short_per_round"] == wl.SIZES["cad_coop"]["short_per_round"]
    assert smoke["rounds"] < wl.SIZES["cad_coop"]["rounds"]
    assert smoke["setup_samples"] == 1


def test_compare_verdicts() -> None:
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict("txn_per_s", "higher", 0.10, steady, steady)[1] == "ok"
    slower = [value * 0.85 for value in steady]
    assert compare.verdict(
        "txn_per_s", "higher", 0.10, steady, slower
    )[1] == "regressed"
    assert compare.verdict(
        "txn_ms_p50", "lower", 0.10, steady, slower
    )[1] == "ok"  # lower is better: 15% lower is an improvement
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0]
    assert compare.verdict(
        "txn_per_s", "higher", 0.10, steady, noisy
    )[1] == "unresolved"
    assert compare.verdict(
        "failed_share", "lower", 0.01, [0.0], [0.02]
    )[1] == "regressed"
    assert compare.verdict(
        "failed_share", "lower", 0.01, [0.10], [0.105]
    )[1] == "ok"


def test_benchmark_json_matches_the_catalogue() -> None:
    contract = json.loads(
        (SUITE_DIR.parents[1] / "BENCHMARK.json").read_text()
    )
    assert contract["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in contract["workloads"]] == list(
        metrics.CONTRACT_WORKLOADS
    )
    assert [
        (m["name"], m["unit"], m["better"], m["bound"])
        for m in contract["end_to_end"]
    ] == [
        (name, *metrics.END_TO_END[name])
        for name in metrics.CONTRACT_END_TO_END
    ]
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [
        (name, *metrics.PER_LAYER[name])
        for name in metrics.CONTRACT_PER_LAYER
    ]


if __name__ == "__main__":
    tests = [
        value for name, value in sorted(globals().items())
        if name.startswith("test_") and callable(value)
    ]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} passed")
