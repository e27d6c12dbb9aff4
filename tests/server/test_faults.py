"""Fault-injection tests: the ISSUE's robustness acceptance criteria.

Covers: malformed frames, backpressure (``BUSY``), parked-request
timeouts, cascading-abort notification, killed clients, slow clients,
and graceful drain.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.protocol.scheduler import TransactionManager
from repro.server import (
    AsyncClient,
    ConflictingRequest,
    RemoteAborted,
    RequestTimeout,
    ServerConfig,
    ShuttingDown,
    TransactionServer,
)
from repro.server.protocol import MAX_FRAME_BYTES, Request, decode_frame
from repro.server.server import MAX_MALFORMED
from repro.server.session import CommandDispatcher, SessionState

from .conftest import run, serving, tiny_db


async def _raw_connection(port):
    return await asyncio.open_connection("127.0.0.1", port)


async def _read_frame(reader):
    return decode_frame(await reader.readline())


class TestMalformedFrames:
    def test_bad_json_is_answered_and_survivable(self):
        async def body():
            async with serving() as server:
                reader, writer = await _raw_connection(server.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                frame = await _read_frame(reader)
                assert frame["ok"] is False
                assert frame["error"]["code"] == "MALFORMED"
                # The connection still works afterwards.
                writer.write(b'{"id": 1, "op": "ping"}\n')
                await writer.drain()
                pong = await _read_frame(reader)
                assert pong == {"id": 1, "ok": True, "pong": True}
                writer.close()

        run(body())

    def test_connection_closes_after_too_many_bad_frames(self):
        async def body():
            async with serving() as server:
                reader, writer = await _raw_connection(server.port)
                for _ in range(MAX_MALFORMED):
                    writer.write(b"garbage\n")
                await writer.drain()
                for _ in range(MAX_MALFORMED):
                    frame = await _read_frame(reader)
                    assert frame["error"]["code"] == "MALFORMED"
                assert await reader.readline() == b""  # EOF
                writer.close()

        run(body())

    def test_malformed_echoes_recoverable_id(self):
        async def body():
            async with serving() as server:
                reader, writer = await _raw_connection(server.port)
                writer.write(b'{"id": 9, "op": ""}\n')
                await writer.drain()
                frame = await _read_frame(reader)
                assert frame["id"] == 9
                assert frame["error"]["code"] == "MALFORMED"
                writer.close()

        run(body())

    def test_oversized_frame_closes_the_connection(self):
        async def body():
            async with serving() as server:
                reader, writer = await _raw_connection(server.port)
                writer.write(b'{"pad": "' + b"x" * (70 * 1024) + b'"}\n')
                await writer.drain()
                frame = await _read_frame(reader)
                assert frame["error"]["code"] == "MALFORMED"
                assert "exceeds" in frame["error"]["message"]
                assert await reader.readline() == b""  # EOF
                writer.close()

        run(body())

    def test_a_frame_of_exactly_the_limit_is_served(self):
        head = b'{"id": 3, "op": "ping"'
        frame = head + b" " * (MAX_FRAME_BYTES - len(head) - 2) + b"}\n"
        assert len(frame) == MAX_FRAME_BYTES

        async def body():
            async with serving() as server:
                reader, writer = await _raw_connection(server.port)
                writer.write(frame)
                await writer.drain()
                assert await _read_frame(reader) == {
                    "id": 3,
                    "ok": True,
                    "pong": True,
                }
                writer.close()

        run(body())

    def test_one_byte_over_the_limit_is_refused_then_a_clean_eof(self):
        # Every byte sent is read before the close, so the peer gets
        # the reply and a FIN, never a reset.
        head = b'{"id": 3, "op": "ping"'
        frame = head + b" " * (MAX_FRAME_BYTES - len(head) - 1) + b"}\n"

        async def body():
            async with serving() as server:
                reader, writer = await _raw_connection(server.port)
                writer.write(frame)
                await writer.drain()
                reply = await _read_frame(reader)
                assert reply["error"]["code"] == "MALFORMED"
                assert "exceeds" in reply["error"]["message"]
                assert await reader.readline() == b""  # EOF, no reset
                writer.close()
                counters = server.registry.snapshot()["counters"]
                assert counters["server.malformed"] == 1

        run(body())


class TestBackpressure:
    def test_full_queue_answers_busy_immediately(self):
        # Unit-level: a dispatcher whose loop is NOT running, so the
        # queue genuinely fills (deterministic, no timing races).
        async def body():
            dispatcher = CommandDispatcher(
                TransactionManager(tiny_db()), queue_size=2
            )
            session = SessionState(1, notify=lambda frame: None)
            outcomes = [
                dispatcher.submit(session, Request(i, "ping"))
                for i in range(4)
            ]
            futures = [o for o in outcomes if isinstance(o, asyncio.Future)]
            rejections = [o for o in outcomes if isinstance(o, dict)]
            assert len(futures) == 2
            assert len(rejections) == 2
            for rejection in rejections:
                assert rejection["error"]["code"] == "BUSY"
                assert rejection["error"]["details"]["queue_size"] == 2
            # Queued work still completes once the loop runs.
            runner = asyncio.create_task(dispatcher.run())
            responses = await asyncio.gather(*futures)
            assert all(r["pong"] for r in responses)
            await dispatcher.stop()
            await runner

        run(body())

    def test_submit_after_drain_is_shutting_down(self):
        async def body():
            dispatcher = CommandDispatcher(TransactionManager(tiny_db()))
            runner = asyncio.create_task(dispatcher.run())
            await dispatcher.drain(grace=0.01)
            session = SessionState(1, notify=lambda frame: None)
            outcome = dispatcher.submit(session, Request(1, "ping"))
            assert isinstance(outcome, dict)
            assert outcome["error"]["code"] == "SHUTTING_DOWN"
            await dispatcher.stop()
            await runner

        run(body())


class TestTimeouts:
    def test_slow_client_parked_request_times_out(self):
        # A "slow client" holds a W lock open (begin_write without
        # end_write); B's validate parks and must time out, and the
        # server stays fully available throughout.
        async def body():
            async with serving(request_timeout=0.3) as server:
                a = await AsyncClient.connect("127.0.0.1", server.port)
                b = await AsyncClient.connect("127.0.0.1", server.port)
                ta = await a.define(updates=["y"])
                await a.validate(ta)
                await a.begin_write(ta, "y")
                tb = await b.define(input_constraint="y >= 0")
                with pytest.raises(RequestTimeout, match="y"):
                    await b.validate(tb)
                # Server is still responsive; once the writer finishes,
                # the same transaction validates fine.
                assert await b.ping()
                await a.end_write(ta, "y", 2)
                assert (await b.validate(tb))["outcome"] == "ok"
                await a.close()
                await b.close()

        run(body())

    def test_parked_request_resumes_when_unblocked(self):
        async def body():
            async with serving() as server:
                a = await AsyncClient.connect("127.0.0.1", server.port)
                b = await AsyncClient.connect("127.0.0.1", server.port)
                ta = await a.define(updates=["x"])
                await a.validate(ta)
                await a.begin_write(ta, "x")
                tb = await b.define(input_constraint="x >= 0")
                task = asyncio.create_task(b.validate(tb))
                await asyncio.sleep(0.1)
                assert not task.done()  # parked server-side
                await a.end_write(ta, "x", 3)
                assert (await task)["outcome"] == "ok"
                await a.close()
                await b.close()

        run(body())

    def test_second_request_on_parked_txn_conflicts(self):
        async def body():
            async with serving() as server:
                a = await AsyncClient.connect("127.0.0.1", server.port)
                b = await AsyncClient.connect("127.0.0.1", server.port)
                ta = await a.define(updates=["x"])
                await a.validate(ta)
                await a.begin_write(ta, "x")
                tb = await b.define(input_constraint="x >= 0")
                parked = asyncio.create_task(b.validate(tb))
                await asyncio.sleep(0.05)
                with pytest.raises(ConflictingRequest):
                    await b.validate(tb)
                await a.end_write(ta, "x", 3)
                await parked
                await a.close()
                await b.close()

        run(body())


class TestCascadingAborts:
    def test_cascade_fails_reader_and_notifies_its_session(self):
        async def body():
            async with serving() as server:
                a = await AsyncClient.connect("127.0.0.1", server.port)
                b = await AsyncClient.connect("127.0.0.1", server.port)
                # A writes x=7 uncommitted; B's constraint x >= 5 forces
                # it onto A's uncommitted version.
                ta = await a.define(updates=["x"])
                await a.validate(ta)
                await a.write(ta, "x", 7)
                tb = await b.define(input_constraint="x >= 5")
                await b.validate(tb)
                assert await b.read(tb, "x") == 7
                aborted = await a.abort(ta)
                assert tb in aborted["cascade"]
                event = await asyncio.wait_for(b.event_queue.get(), 5)
                # Driving the dead transaction now fails typed.
                with pytest.raises(RemoteAborted):
                    await b.read(tb, "x")
                await a.close()
                await b.close()
                return event, tb

        event, tb = run(body())
        assert event["event"] == "abort"
        assert event["txn"] == tb
        assert "abort" in event["reason"]

    def test_killed_client_mid_transaction_cascades(self):
        # A dies holding an uncommitted write that B read: the server
        # aborts A's work and the cascade reaches B with an event.
        async def body():
            async with serving() as server:
                a = await AsyncClient.connect("127.0.0.1", server.port)
                b = await AsyncClient.connect("127.0.0.1", server.port)
                ta = await a.define(updates=["x"])
                await a.validate(ta)
                await a.write(ta, "x", 9)
                tb = await b.define(input_constraint="x >= 5")
                await b.validate(tb)
                assert await b.read(tb, "x") == 9
                await a.close()  # killed mid-transaction
                event = await asyncio.wait_for(b.event_queue.get(), 5)
                await b.close()
                return event, tb

        event, tb = run(body())
        assert event["event"] == "abort"
        assert event["txn"] == tb

    def test_abort_unblocks_parked_waiters(self):
        # B parks behind A's in-flight write; aborting A must release
        # B (the manager drops lock grants on abort — the dispatcher
        # re-runs all lock waiters to compensate).
        async def body():
            async with serving() as server:
                a = await AsyncClient.connect("127.0.0.1", server.port)
                b = await AsyncClient.connect("127.0.0.1", server.port)
                ta = await a.define(updates=["x"])
                await a.validate(ta)
                await a.begin_write(ta, "x")
                tb = await b.define(input_constraint="x >= 0")
                task = asyncio.create_task(b.validate(tb))
                await asyncio.sleep(0.05)
                assert not task.done()
                await a.abort(ta)
                result = await asyncio.wait_for(task, 5)
                assert result["outcome"] == "ok"
                await a.close()
                await b.close()

        run(body())


class TestGracefulDrain:
    def test_shutdown_aborts_live_work_and_notifies(self):
        async def body():
            server = TransactionServer(tiny_db(), ServerConfig(port=0))
            await server.start()
            client = await AsyncClient.connect("127.0.0.1", server.port)
            txn = await client.define(updates=["x"])
            await client.validate(txn)
            await server.shutdown()
            events = []
            while True:
                try:
                    events.append(
                        await asyncio.wait_for(client.event_queue.get(), 2)
                    )
                except asyncio.TimeoutError:
                    break
                if events[-1]["event"] == "shutdown":
                    break
            await client.close()
            # The live transaction was aborted server-side.
            assert server.manager.record(txn).terminated
            return events, txn

        events, txn = run(body())
        kinds = [event["event"] for event in events]
        assert kinds == ["abort", "shutdown"]
        assert events[0]["txn"] == txn

    def test_requests_after_drain_get_shutting_down(self):
        async def body():
            async with serving() as server:
                client = await AsyncClient.connect(
                    "127.0.0.1", server.port
                )
                server.dispatcher._draining = True
                with pytest.raises(ShuttingDown):
                    await client.ping()
                server.dispatcher._draining = False
                await client.close()

        run(body())

    def test_idle_session_is_closed(self):
        async def body():
            async with serving(session_timeout=0.2) as server:
                reader, writer = await _raw_connection(server.port)
                line = await asyncio.wait_for(reader.readline(), 5)
                assert line == b""  # server closed the idle connection
                writer.close()
                counters = server.registry.snapshot()["counters"]
                assert counters["server.idle_closed"] == 1

        run(body())
