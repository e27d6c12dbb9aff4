"""Closed-loop driver tests: workload replay, report shape, bench file."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli.common import write_json
from repro.errors import SimulationError
from repro.server import AsyncClient, ServerConfig, TransactionServer
from repro.workload import build_workload
from repro.workload.driver import report_table, run_loadgen

from .conftest import run, serving


def _replay(workload, clients, **server_kw):
    async def body():
        server = TransactionServer(
            workload.fresh_database(), ServerConfig(port=0, **server_kw)
        )
        await server.start()
        try:
            return await run_loadgen(
                workload,
                clients=clients,
                port=server.port,
                connect_retries=2,
            )
        finally:
            await server.shutdown()

    return run(body(), timeout=120)


class TestBuildWorkload:
    def test_kinds(self):
        cad = build_workload("cad", transactions=3)
        oltp = build_workload("oltp", transactions=3)
        assert len(cad.scripts) == 3
        assert len(oltp.scripts) == 3
        assert cad.fresh_database().schema.names

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown workload"):
            build_workload("tpcc")

    def test_key_dist_threads_through(self):
        zipf = build_workload("cad", transactions=3, key_dist="zipf")
        assert zipf.key_dist == "zipf"
        assert build_workload("oltp", transactions=3).key_dist == "uniform"
        with pytest.raises(SimulationError, match="key distribution"):
            build_workload("cad", key_dist="pareto")


class TestLoadgen:
    def test_cad_replay_commits_everything_cleanly(self):
        workload = build_workload("cad", transactions=8, seed=1)
        report = _replay(workload, clients=4)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 8
        assert report.committed > 0
        assert report.requests > 0
        # BUSY retries observe latency without counting as requests.
        assert report.latency.count >= report.requests
        assert report.wall_time > 0
        assert report.throughput > 0

    def test_oltp_replay(self):
        workload = build_workload("oltp", transactions=6, seed=2)
        report = _replay(workload, clients=3)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 6

    def test_more_clients_than_scripts(self):
        workload = build_workload("cad", transactions=2, seed=0)
        report = _replay(workload, clients=5)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 2

    def test_report_json_and_file(self, tmp_path):
        workload = build_workload("cad", transactions=4, seed=3)
        report = _replay(workload, clients=2)
        data = report.to_json()
        assert data["benchmark"] == "server-loadgen"
        assert data["clients"] == 2
        assert data["scripts"] == 4
        assert data["key_dist"] == "uniform"
        assert set(data["request_latency_ms"]) == {
            "count", "mean", "p50", "p95", "p99", "max",
        }
        assert "server" in data
        path = tmp_path / "BENCH_server.json"
        write_json(str(path), report.to_json())
        assert json.loads(path.read_text()) == data
        table = report_table(report)
        assert "wire-protocol errors: 0" in table
        assert "committed" in table

    def test_server_stats_are_archived(self):
        workload = build_workload("cad", transactions=4, seed=4)
        report = _replay(workload, clients=2)
        assert report.server_stats["counters"]["server.requests"] > 0
        assert "queue_wait" in report.server_stats

    def test_rejects_zero_clients(self):
        workload = build_workload("cad", transactions=2)

        async def body():
            await run_loadgen(workload, clients=0, port=1)

        with pytest.raises(ValueError, match="client"):
            run(body())

    def test_connection_refused_surfaces_oserror(self):
        workload = build_workload("cad", transactions=1)

        async def body():
            # An unroutable port with no retries fails fast.
            await run_loadgen(
                workload,
                clients=1,
                port=1,
                connect_retries=0,
            )

        with pytest.raises(OSError):
            run(body())


class TestDefineOnDemand:
    def test_live_set_is_the_connection_count(self):
        # Scripts are defined inside the timed window, one per
        # connection at a time: a third connection polling ``stats``
        # never sees more live transactions than there are driver
        # connections.
        workload = build_workload("oltp", transactions=40, seed=7)

        async def body():
            async with serving(workload.fresh_database()) as server:
                observer = await AsyncClient.connect(port=server.port)
                driving = asyncio.ensure_future(
                    run_loadgen(workload, clients=2, port=server.port)
                )
                live = []
                try:
                    while not driving.done():
                        reply = await observer.stats()
                        counters = reply["stats"]["counters"]
                        live.append(
                            counters.get("server.txns.defined", 0)
                            - counters.get("server.txns.committed", 0)
                            - counters.get("server.txns.aborted", 0)
                        )
                    return await driving, live
                finally:
                    await observer.close()

        report, live = run(body(), timeout=120)
        # No attempt aborted, so the counters' difference is exactly
        # the live set.
        assert report.committed == 40 and report.restarts == 0
        assert len(live) > 10
        assert max(live) <= 2


class TestLoadgenUnderPressure:
    def test_tiny_queue_still_completes_with_busy_retries(self):
        # A 4-deep command queue against 6 clients forces BUSY
        # responses; the loadgen's backoff absorbs them and the run
        # still finishes with zero wire faults.
        workload = build_workload("oltp", transactions=12, seed=5)
        report = _replay(workload, clients=6, queue_size=4)
        assert report.protocol_errors == 0
        assert report.committed + report.gave_up == 12

    def test_asyncio_event_loop_isolation(self):
        # Two sequential asyncio.run loadgens must not share state.
        workload = build_workload("cad", transactions=2, seed=6)
        first = _replay(workload, clients=2)
        second = _replay(workload, clients=2)
        assert first.protocol_errors == second.protocol_errors == 0
