"""The per-connection path: a framer in the read callback, no Task.

A connection is a :class:`repro.framing.LineProtocol` whose read
callback submits each frame it completes: an idle connection holds no
Task, a request creates none on its way in or out, and the idle timeout
is one re-arming watchdog rather than a timer per frame.  Reads land in
a buffer the connection keeps, so a round trip allocates no 256 KiB
read chunk on either side.
"""

from __future__ import annotations

import asyncio
import socket
import statistics
import tracemalloc

from repro.server import AsyncClient, Client, ServerThread
from repro.server.protocol import decode_frame

from .conftest import run, serving, tiny_db

_PING = b'{"id": 1, "op": "ping"}\n'
_PINGS = 300


async def _ping(reader, writer) -> dict:
    writer.write(_PING)
    await writer.drain()
    return decode_frame(await reader.readline())


def test_an_idle_connection_holds_no_task():
    async def body():
        async with serving() as server:
            before = len(asyncio.all_tasks())
            connections = []
            for _ in range(5):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Answered: the server has the connection.
                assert (await _ping(reader, writer))["pong"] is True
                connections.append(writer)
            assert len(server._connections) == len(connections)
            assert len(asyncio.all_tasks()) == before
            for writer in connections:
                writer.close()
                await writer.wait_closed()

    run(body())


def test_pipelined_requests_create_no_task():
    async def body():
        async with serving() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            await _ping(reader, writer)
            loop = asyncio.get_running_loop()
            created = []

            def counting_factory(loop, coro, **kwargs):
                created.append(coro)
                return asyncio.Task(coro, loop=loop, **kwargs)

            loop.set_task_factory(counting_factory)
            try:
                writer.write(_PING * 200)
                await writer.drain()
                replies = [
                    decode_frame(await reader.readline())
                    for _ in range(200)
                ]
            finally:
                loop.set_task_factory(None)
            assert all(reply["pong"] for reply in replies)
            assert created == []
            writer.close()
            await writer.wait_closed()

    run(body())


def test_idle_timeout_counts_from_the_last_frame():
    async def body():
        async with serving(session_timeout=0.3) as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            for _ in range(10):  # 1 s of traffic, 0.1 s apart
                assert (await _ping(reader, writer))["pong"] is True
                await asyncio.sleep(0.1)
            counters = server.registry.snapshot()["counters"]
            assert counters.get("server.idle_closed", 0) == 0
            # Quiet from here on: the watchdog closes the connection.
            assert await asyncio.wait_for(reader.readline(), 5) == b""
            counters = server.registry.snapshot()["counters"]
            assert counters["server.idle_closed"] == 1
            writer.close()
            await writer.wait_closed()

    run(body())


def test_blank_keep_alive_lines_get_no_reply():
    async def body():
        async with serving() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\n \r\n\n" + b'{"id": 9, "op": "ping"}\n')
            await writer.drain()
            assert decode_frame(await reader.readline())["id"] == 9
            counters = server.registry.snapshot()["counters"]
            assert counters.get("server.malformed", 0) == 0
            writer.close()
            await writer.wait_closed()

    run(body())


# -- per-request cost: loop iterations and allocations ------------------------


class _IterationCounter:
    """Counts one event loop's iterations (``_run_once`` calls)."""

    def __init__(self, loop: asyncio.AbstractEventLoop) -> None:
        self.count = 0
        original = loop._run_once

        def counted() -> None:
            self.count += 1
            original()

        loop._run_once = counted

    def per_call(self, call) -> float:
        """Median iterations per ``call()`` over ``_PINGS`` calls (the
        median ignores a stray timer landing between two of them)."""
        deltas = []
        for _ in range(_PINGS):
            before = self.count
            call()
            deltas.append(self.count - before)
        return statistics.median(deltas)


def test_a_ping_costs_the_server_at_most_three_loop_iterations():
    with ServerThread(tiny_db) as handle:
        with socket.create_connection(("127.0.0.1", handle.port)) as sock:
            replies = sock.makefile("rb")

            def ping() -> None:
                sock.sendall(_PING)
                assert decode_frame(replies.readline())["pong"] is True

            counter = _IterationCounter(handle._loop)
            ping()  # the loop now runs the counting iteration
            per_ping = counter.per_call(ping)
            replies.close()
    assert per_ping <= 3.0, per_ping


def test_a_ping_costs_the_async_client_at_most_two_loop_iterations():
    async def body(port: int) -> float:
        client = await AsyncClient.connect("127.0.0.1", port)
        counter = _IterationCounter(asyncio.get_running_loop())
        deltas = []
        for _ in range(_PINGS):
            before = counter.count
            assert await client.ping() is True
            deltas.append(counter.count - before)
        await client.close()
        return statistics.median(deltas)

    with ServerThread(tiny_db) as handle:
        per_ping = run(body(handle.port))
    assert per_ping <= 2.0, per_ping


def _peak_bytes(ping) -> int:
    """Traced allocation peak (every thread) over ``_PINGS`` pings."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _ in range(_PINGS):
            ping()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocking_client_round_trips_allocate_no_read_chunks():
    with ServerThread(tiny_db) as handle:
        with Client.connect("127.0.0.1", handle.port) as client:
            client.ping()
            peak = _peak_bytes(client.ping)
    assert peak < 128 * 1024, peak


def test_async_client_round_trips_allocate_no_read_chunks():
    async def body(port: int) -> int:
        client = await AsyncClient.connect("127.0.0.1", port)
        await client.ping()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for _ in range(_PINGS):
                await client.ping()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        await client.close()
        return peak

    with ServerThread(tiny_db) as handle:
        peak = run(body(handle.port))
    assert peak < 128 * 1024, peak
