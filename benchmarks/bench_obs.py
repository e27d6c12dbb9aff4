"""Experiment O1 — observability overhead (writes BENCH_obs.json).

The tracer must be free when off.  ``test_protocol_throughput`` in
``bench_protocol.py`` is the canonical un-traced number (same loop as
the seed); the benchmarks here run the identical loop with the default
no-op tracer and with the one real tracer in both retention modes —
the server's :class:`~repro.obs.live.LiveTracer` streaming into a span
ring, and :class:`~repro.obs.live.RecordingTracer` additionally
keeping every span — all in one ``obs-overhead`` comparison group, so

    pytest benchmarks/bench_obs.py benchmarks/bench_protocol.py \
        --benchmark-only --benchmark-group-by=group

prints the disabled-vs-recording-vs-live-vs-seed columns side by side.
The acceptance bar is: *disabled* within 5% of the seed loop (they
execute the same instructions plus one ``enabled`` branch per hook).

``test_obs_live_overhead_write_benchmark_json`` measures the number
that matters operationally — live tracing enabled on the dispatcher
hot path (the loadgen transaction shape through a running
:class:`CommandDispatcher`) versus the same path untraced — and
records it in ``BENCH_obs.json`` with the <5% target.  On the full
wire path the per-span bookkeeping additionally hides behind syscalls
and scheduling, which is why ``--trace-out`` is safe to leave on in
production.

Run any benchmark here with ``--trace-out FILE`` to also dump a
recorded simulator trace as JSONL (see ``conftest.py``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import Domain, Predicate, Schema, Spec
from repro.obs import LiveTracer, MetricsRegistry, RecordingTracer, SpanRing
from repro.protocol import TransactionManager
from repro.storage import Database

from conftest import report

ROOT = Path(__file__).resolve().parent.parent


def _database(entities=("x", "y", "z"), initial=10):
    schema = Schema.of(*entities, domain=Domain.interval(0, 100_000))
    constraint = Predicate(
        tuple(
            Predicate.parse(f"{name} >= 0").clauses[0]
            for name in entities
        )
    )
    return Database(
        schema, constraint, {name: initial for name in entities}
    )


def _spec(i="true", o="true"):
    return Spec(Predicate.parse(i), Predicate.parse(o))


def _one_transaction(tm: TransactionManager, counter: list[int]) -> None:
    counter[0] += 1
    txn = tm.define(tm.root, _spec("x >= 0"), {"y"})
    tm.validate(txn)
    tm.read(txn, "x")
    tm.write(txn, "y", counter[0] % 1000)
    tm.commit(txn)


def test_obs_disabled_throughput(benchmark):
    """The default path: NULL_TRACER, no registry (the common case)."""
    benchmark.group = "obs-overhead"
    tm = TransactionManager(_database())
    counter = [0]
    benchmark(lambda: _one_transaction(tm, counter))


def test_obs_recording_throughput(benchmark):
    """Full recording: every span kept in memory, histograms fed."""
    benchmark.group = "obs-overhead"
    tm = TransactionManager(_database())
    tm.set_tracer(RecordingTracer())
    tm.set_registry(MetricsRegistry())
    counter = [0]
    benchmark(lambda: _one_transaction(tm, counter))


def test_obs_live_throughput(benchmark):
    """Streaming: spans pushed to a ring, nobody consuming (server
    default with ``--trace-out`` off but a tracer attached)."""
    benchmark.group = "obs-overhead"
    tm = TransactionManager(_database())
    tm.set_tracer(LiveTracer(SpanRing(4096)))
    tm.set_registry(MetricsRegistry())
    counter = [0]
    benchmark(lambda: _one_transaction(tm, counter))


def test_obs_overhead_ratio():
    """Report disabled-vs-recording per-transaction cost directly.

    Not a pytest-benchmark case: one deliberate A/B measurement whose
    numbers land in the experiment report.  The assertion is a loose
    sanity bound (recording below 10x disabled), not a perf gate —
    perf gates on shared CI runners flake.
    """

    def measure(recording: bool, rounds: int = 400) -> float:
        tm = TransactionManager(_database())
        if recording:
            tm.set_tracer(RecordingTracer())
            tm.set_registry(MetricsRegistry())
        counter = [0]
        for _ in range(50):  # warmup
            _one_transaction(tm, counter)
        start = time.perf_counter()
        for _ in range(rounds):
            _one_transaction(tm, counter)
        return (time.perf_counter() - start) / rounds

    disabled = min(measure(False) for _ in range(3))
    recording = min(measure(True) for _ in range(3))
    ratio = recording / disabled if disabled else float("inf")
    report(
        "O1: tracing overhead per protocol transaction",
        f"  disabled   {disabled * 1e6:8.2f} us/txn\n"
        f"  recording  {recording * 1e6:8.2f} us/txn\n"
        f"  ratio      {ratio:8.2f}x",
    )
    assert ratio < 10.0


def _measure_loop_us(make_tracer, rounds: int = 400) -> float:
    """min-of-3 us/txn over the bare protocol loop."""

    def once() -> float:
        tm = TransactionManager(_database())
        tracer = make_tracer()
        if tracer is not None:
            tm.set_tracer(tracer)
            tm.set_registry(MetricsRegistry())
        counter = [0]
        for _ in range(50):  # warmup
            _one_transaction(tm, counter)
        start = time.perf_counter()
        for _ in range(rounds):
            _one_transaction(tm, counter)
        return (time.perf_counter() - start) / rounds * 1e6

    return min(once() for _ in range(3))


def _measure_dispatcher_us(tracer, txns: int = 400) -> tuple[float, float]:
    """(wall us/txn, cpu us/txn) through the dispatcher hot path.

    The loadgen transaction shape (define, validate, read, write,
    commit) submitted straight to a running :class:`CommandDispatcher`
    — the full queue / request-span / parking machinery without the
    TCP transport, whose event-loop scheduling costs more CPU *and*
    varies more between runs than the tracing being measured.  The
    overhead verdict is computed from ``time.process_time``: tracing
    overhead is extra work, and on a shared runner wall time is
    dominated by scheduler jitter that dwarfs it.
    """
    import asyncio

    from repro.obs import MetricsRegistry as Registry
    from repro.server.protocol import Request
    from repro.server.session import CommandDispatcher, SessionState

    async def drive() -> tuple[float, float]:
        tm = TransactionManager(_database())
        registry = Registry()
        tm.set_registry(registry)
        if tracer is not None:
            tm.set_tracer(tracer)
        dispatcher = CommandDispatcher(
            tm, registry=registry, tracer=tracer
        )
        task = asyncio.ensure_future(dispatcher.run())
        session = SessionState(session_id=1, notify=lambda _p: None)
        rid = 0

        async def ask(op: str, **params):
            nonlocal rid
            rid += 1
            outcome = dispatcher.submit(session, Request(rid, op, params))
            return outcome if isinstance(outcome, dict) else await outcome

        async def one(i: int) -> None:
            reply = await ask(
                "define", updates=["y"], input="x >= 0", output="true"
            )
            txn = reply["txn"]
            await ask("validate", txn=txn)
            await ask("read", txn=txn, entity="x")
            await ask("write", txn=txn, entity="y", value=i % 1000)
            await ask("commit", txn=txn)

        for i in range(40):  # warmup
            await one(i)
        wall = time.perf_counter()
        cpu = time.process_time()
        for i in range(txns):
            await one(i)
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        await dispatcher.stop()
        await task
        return wall / txns * 1e6, cpu / txns * 1e6

    return asyncio.run(drive())



def _measure_loadgen(tracer) -> tuple[float, float]:
    """(wall us/commit, cpu us/commit) for a full ``run_loadgen`` at
    defaults — 8 concurrent clients running the CAD workload closed-loop
    over TCP loopback against a ServerThread, exactly what ``repro
    loadgen`` does (``define`` included).  This is the scenario the <5%
    target is stated for."""
    import asyncio

    from repro.server import ServerThread
    from repro.workload import build_workload
    from repro.workload.driver import run_loadgen

    workload = build_workload("cad", transactions=24, seed=3)
    with ServerThread(workload.fresh_database, tracer=tracer) as handle:
        wall = time.perf_counter()
        cpu = time.process_time()
        report_ = asyncio.run(
            run_loadgen(workload, clients=8, port=handle.port, seed=3)
        )
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
    committed = max(1, report_.committed)
    return wall / committed * 1e6, cpu / committed * 1e6


def test_obs_live_overhead_write_benchmark_json():
    """The operational number: live tracing on the dispatcher path.

    A/B through a running dispatcher — the same transaction shape as
    ``repro loadgen`` — untraced versus a LiveTracer feeding a span
    ring.  The <5% target lives in the JSON (and EXPERIMENTS
    tracks it); the in-test assertion is deliberately looser because
    perf gates on shared CI runners flake.
    """
    disabled_us = _measure_loop_us(lambda: None)
    recording_us = _measure_loop_us(RecordingTracer)
    live_us = _measure_loop_us(lambda: LiveTracer(SpanRing(4096)))
    # Interleaved A/B pairs: each pair shares the machine conditions of
    # its moment, so the per-pair CPU ratio cancels the slow drift (CPU
    # scaling, noisy neighbours) that dwarfs the effect across minutes.
    pairs = [
        (
            _measure_dispatcher_us(None),
            _measure_dispatcher_us(LiveTracer(SpanRing(65536))),
        )
        for _ in range(7)
    ]
    ratios = sorted(
        live_cpu / off_cpu
        for (_, off_cpu), (_, live_cpu) in pairs
        if off_cpu
    )
    median_ratio = ratios[len(ratios) // 2]
    disp_off = min(wall for (wall, _), _ in pairs)
    disp_live = min(wall for _, (wall, _) in pairs)
    disp_off_cpu = min(cpu for (_, cpu), _ in pairs)
    disp_live_cpu = min(cpu for _, (_, cpu) in pairs)
    overhead_pct = (median_ratio - 1.0) * 100.0
    # The number the <5% target is stated for: full loadgen defaults
    # (8 concurrent TCP clients, CAD workload) — tracing cost relative
    # to what a real served transaction costs end to end.
    lg_pairs = [
        (
            _measure_loadgen(None),
            _measure_loadgen(LiveTracer(SpanRing(65536))),
        )
        for _ in range(5)
    ]
    lg_ratios = sorted(
        live_cpu / off_cpu
        for (_, off_cpu), (_, live_cpu) in lg_pairs
        if off_cpu
    )
    lg_median = lg_ratios[len(lg_ratios) // 2]
    lg_overhead_pct = (lg_median - 1.0) * 100.0
    lg_off_cpu = min(cpu for (_, cpu), _ in lg_pairs)
    lg_live_cpu = min(cpu for _, (_, cpu) in lg_pairs)
    payload = {
        "protocol_loop": {
            "disabled_us_per_txn": round(disabled_us, 3),
            "recording_us_per_txn": round(recording_us, 3),
            "live_us_per_txn": round(live_us, 3),
            "recording_ratio": round(recording_us / disabled_us, 3),
            "live_ratio": round(live_us / disabled_us, 3),
        },
        "dispatcher": {
            "txn_shape": "define+validate+read+write+commit",
            "untraced_wall_us_per_txn": round(disp_off, 1),
            "live_wall_us_per_txn": round(disp_live, 1),
            "untraced_cpu_us_per_txn": round(disp_off_cpu, 1),
            "live_cpu_us_per_txn": round(disp_live_cpu, 1),
            "pair_cpu_ratios": [round(r, 4) for r in ratios],
            "overhead_pct": round(overhead_pct, 2),
            "overhead_basis": "median per-pair CPU-time ratio",
        },
        "loadgen_defaults": {
            "scenario": (
                "repro.workload.driver.run_loadgen cad, 8 clients, "
                "TCP loopback, define included"
            ),
            "untraced_cpu_us_per_commit": round(lg_off_cpu, 1),
            "live_cpu_us_per_commit": round(lg_live_cpu, 1),
            "pair_cpu_ratios": [round(r, 4) for r in lg_ratios],
            "overhead_pct": round(lg_overhead_pct, 2),
            "overhead_basis": "median per-pair CPU-time ratio",
            "target_pct": 5.0,
        },
    }
    (ROOT / "BENCH_obs.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report(
        "O1: live tracing overhead",
        f"  protocol loop  disabled {disabled_us:8.2f} us/txn   "
        f"recording {recording_us:8.2f}   live {live_us:8.2f}\n"
        f"  dispatcher w   untraced {disp_off:8.1f} us/txn   "
        f"live {disp_live:8.1f}\n"
        f"  dispatcher cpu untraced {disp_off_cpu:8.1f} us/txn   "
        f"live {disp_live_cpu:8.1f}   overhead {overhead_pct:+.2f}% "
        f"median of {len(ratios)} pairs\n"
        f"  loadgen cpu    untraced {lg_off_cpu:8.1f} us/commit "
        f"live {lg_live_cpu:8.1f}   overhead {lg_overhead_pct:+.2f}% "
        f"median of {len(lg_ratios)} pairs (target < 5%)",
    )
    # Loose sanity bounds only — shared/throttled CI runners swing the
    # measured ratio by 2x between runs (observed 1.08..1.25 medians
    # for identical code), so anything tighter flakes.  The 5% target
    # is tracked via the recorded overhead_pct in BENCH_obs.json.
    assert live_us < 25 * disabled_us
    assert median_ratio < 2.0
    assert lg_median < 2.0


def test_obs_sim_trace_volume(benchmark, cad_workload_std, trace_path):
    """Recording a full simulator run: span volume and wall cost."""
    from repro.obs import write_jsonl
    from repro.sim import DEFAULT_SCHEDULERS, run_one

    def traced_run():
        tracer = RecordingTracer()
        run_one(
            DEFAULT_SCHEDULERS["korth-speegle"],
            cad_workload_std,
            seed=3,
            tracer=tracer,
        )
        return tracer

    tracer = benchmark.pedantic(traced_run, rounds=3, iterations=1)
    assert {"arrive", "validate", "commit", "txn"} <= tracer.kinds()
    lines = ""
    if trace_path:
        count = write_jsonl(list(tracer.spans), trace_path)
        lines = f"\n  wrote {count} spans -> {trace_path}"
    report(
        "O1: trace volume for the standard CAD run",
        f"  {len(tracer)} spans, kinds: "
        f"{', '.join(sorted(tracer.kinds()))}{lines}",
    )
