"""The per-connection path: one coroutine per connection.

A connection is one task (the handler ``asyncio.start_server`` runs);
a request creates no task on its way in or out, and the idle timeout
is one re-arming watchdog rather than a timer per frame.
"""

from __future__ import annotations

import asyncio

from repro.server.protocol import decode_frame

from .conftest import run, serving

_PING = b'{"id": 1, "op": "ping"}\n'


async def _ping(reader, writer) -> dict:
    writer.write(_PING)
    await writer.drain()
    return decode_frame(await reader.readline())


def test_an_idle_connection_is_one_task():
    async def body():
        async with serving() as server:
            before = len(asyncio.all_tasks())
            connections = []
            for _ in range(5):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # Answered: the server's handler is running and back
                # at its read.
                assert (await _ping(reader, writer))["pong"] is True
                connections.append(writer)
            assert len(asyncio.all_tasks()) - before == len(connections)
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
