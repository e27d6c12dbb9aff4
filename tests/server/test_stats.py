"""The ``stats`` command and the HTTP metrics listener, end to end.

Drives a real :class:`ServerThread` over TCP: the ``stats`` protocol
command (including the ``live`` open-span list a tracing server adds)
and the ``/metrics`` / ``/stats`` / ``/healthz`` HTTP endpoints.
"""

from __future__ import annotations

import json
import socket

from repro.obs import LiveTracer, SpanRing
from repro.obs.metrics import MetricsRegistry
from repro.server import ServerConfig, ServerThread, TransactionServer
from repro.server.client import Client
from repro.server.server import HISTOGRAM_WINDOW

from .conftest import tiny_db


def _http_get(port: int, path: str, method: str = "GET") -> tuple[str, str]:
    """One HTTP exchange; returns (status line, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode("ascii")
        )
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("ascii")
    return status, body.decode("utf-8")


class TestStatsCommand:
    def test_live_list_tracks_open_transactions(self):
        tracer = LiveTracer(SpanRing(4096))
        with ServerThread(tiny_db, tracer=tracer) as handle:
            with Client.connect("127.0.0.1", handle.port) as client:
                def roots(stats):
                    # The stats request itself is always in flight, so
                    # watch the transaction-lifetime roots only.
                    return [
                        entry for entry in stats["live"]
                        if entry["kind"] == "txn.server"
                    ]

                idle = client.stats()
                assert roots(idle) == []

                txn = client.define(
                    updates=["y"],
                    input_constraint="x >= 0",
                    output_condition="true",
                )
                busy = roots(client.stats())
                assert any(
                    entry["txn"] == txn and entry["age"] >= 0.0
                    for entry in busy
                )

                client.validate(txn)
                client.write(txn, "y", 5)
                client.commit(txn)
                drained = client.stats()
                assert roots(drained) == []
                assert drained["queue_depth"] == 0
                assert drained["parked"] == 0

    def test_untraced_server_omits_live(self):
        with ServerThread(tiny_db) as handle:
            with Client.connect("127.0.0.1", handle.port) as client:
                assert "live" not in client.stats()


class TestMetricsEndpoint:
    def _serving(self):
        return ServerThread(tiny_db, config=ServerConfig(metrics_port=0))

    def _run_one_txn(self, port: int) -> None:
        with Client.connect("127.0.0.1", port) as client:
            txn = client.define(updates=["x"])
            client.validate(txn)
            client.write(txn, "x", 2)
            client.commit(txn)

    def test_metrics_scrape_is_prometheus_text(self):
        with self._serving() as handle:
            self._run_one_txn(handle.port)
            status, body = _http_get(handle.server.metrics_port, "/metrics")
        assert status == "HTTP/1.1 200 OK"
        assert "# TYPE repro_server_requests counter" in body
        assert "# TYPE repro_server_txns_committed counter" in body
        assert 'repro_server_request_latency{quantile="0.99"}' in body
        assert body.endswith("\n")

    def test_stats_endpoint_is_json_with_depths(self):
        with self._serving() as handle:
            self._run_one_txn(handle.port)
            status, body = _http_get(handle.server.metrics_port, "/stats")
        assert status == "HTTP/1.1 200 OK"
        snapshot = json.loads(body)
        assert snapshot["counters"]["server.txns.committed"] == 1
        assert snapshot["queue_depth"] == 0
        assert snapshot["parked"] == 0

    def test_healthz_and_error_routes(self):
        with self._serving() as handle:
            port = handle.server.metrics_port
            assert _http_get(port, "/healthz") == ("HTTP/1.1 200 OK", "ok\n")
            status, _ = _http_get(port, "/nope")
            assert status == "HTTP/1.1 404 Not Found"
            status, _ = _http_get(port, "/metrics", method="POST")
            assert status == "HTTP/1.1 405 Method Not Allowed"

    def test_scrape_ignores_query_string(self):
        with self._serving() as handle:
            status, _ = _http_get(
                handle.server.metrics_port, "/healthz?verbose=1"
            )
        assert status == "HTTP/1.1 200 OK"


class TestServerHistogramWindow:
    """A registry the server builds keeps a fixed window per histogram;
    one passed in (the fuzzer's) is left as it was built."""

    def test_latency_histograms_stay_bounded(self):
        server = TransactionServer(tiny_db())
        histogram = server.registry.histogram("server.request.latency")
        samples = [float(i % 997) for i in range(20_000)]
        for value in samples:
            histogram.observe(value)
        assert len(histogram.values) == HISTOGRAM_WINDOW
        assert sorted(histogram.values) == sorted(samples[-HISTOGRAM_WINDOW:])
        assert histogram.count == len(samples)
        assert histogram.total == sum(samples)
        assert histogram.max == max(samples)

    def test_a_registry_passed_in_keeps_every_sample(self):
        server = TransactionServer(tiny_db(), registry=MetricsRegistry())
        histogram = server.registry.histogram("server.request.latency")
        for value in range(HISTOGRAM_WINDOW + 5):
            histogram.observe(float(value))
        assert len(histogram.values) == HISTOGRAM_WINDOW + 5
