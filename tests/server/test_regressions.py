"""Regression tests for the fuzz-sweep bugfixes.

Each test pins one fix from the fuzzer-driven sweep:

* dropped slow-reader notifications are counted under
  ``server.notifications_dropped`` and surfaced by the drain summary;
* :meth:`ServerThread.stop` raises instead of silently leaking a
  wedged event-loop thread;
* a command that was answered while parked (timeout, abort cascade)
  can never reach the manager again;
* a recursive abort cascade inside ``_resume_all_lock_waiters`` must
  not double-execute a parked command (the stale-snapshot race).

Plus one from the state unification: an abort after an acknowledged
commit is refused and changes nothing; and one from the fuzzer's
``committed_prefix`` oracle: a commit that releases a parked commit is
answered before it.
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import Counter

import pytest

from repro.protocol import TxnPhase
from repro.protocol.scheduler import TransactionManager
from repro.server import (
    AsyncClient,
    RemoteProtocolError,
    ServerConfig,
    TransactionServer,
)
from repro.server.protocol import MAX_FRAME_BYTES, Request, encode_frame
from repro.server.server import SEND_BUFFER_LIMIT, ServerThread
from repro.server.session import CommandDispatcher, SessionState

from .conftest import run, serving, tiny_db


class CountingManager(TransactionManager):
    """Counts manager entry points the dispatcher may double-call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.validate_calls: Counter = Counter()
        self.begin_write_calls: Counter = Counter()

    def validate(self, txn):
        self.validate_calls[txn] += 1
        return super().validate(txn)

    def begin_write(self, txn, entity):
        self.begin_write_calls[(txn, entity)] += 1
        return super().begin_write(txn, entity)


async def _request(dispatcher, session, rid, op, **params):
    outcome = dispatcher.submit(session, Request(rid, op, params))
    return outcome if isinstance(outcome, dict) else await outcome


# -- satellite: notifications_dropped metric + drain summary ----------------


async def _stalled_connection(server, *requests):
    """A connected client that never reads once ``requests`` are
    answered, with small socket buffers on both ends, and the server's
    side of it."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(
        sock, ("127.0.0.1", server.port)
    )
    reader, writer = await asyncio.open_connection(sock=sock)
    for request in (*requests, {"id": 0, "op": "ping"}):
        writer.write(encode_frame(request))
        await writer.drain()
        await reader.readline()  # answered: the server holds the session
    (connection,) = server._connections.values()
    connection.transport.get_extra_info("socket").setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
    )
    return writer, connection


_PAD = {"event": "pad", "data": "x" * (MAX_FRAME_BYTES // 2)}


def test_slow_reader_drops_are_counted_and_summarized():
    async def body():
        server = TransactionServer(tiny_db(), ServerConfig())
        await server.start()
        client, connection = await _stalled_connection(server)
        for _ in range(100):
            server._send(connection, _PAD)
        counter = server.registry.counter(
            "server.notifications_dropped"
        )
        dropped = counter.value
        assert dropped > 0
        summary = await server.shutdown()
        # shutdown() writes its shutdown event to the same full
        # transport, so the summary includes that drop too.
        assert summary["notifications_dropped"] == dropped + 1
        assert summary["parked_failed"] == 0
        assert summary["aborted"] == []
        client.close()

    run(body())


def test_send_never_blocks_the_caller():
    async def body():
        async with serving() as server:
            client, connection = await _stalled_connection(server)
            start = time.monotonic()
            for _ in range(100):
                server._send(connection, _PAD)
            assert time.monotonic() - start < 1.0
            held = connection.transport.get_write_buffer_size()
            assert SEND_BUFFER_LIMIT <= held < SEND_BUFFER_LIMIT + (
                MAX_FRAME_BYTES
            )
            client.close()

    run(body())


def test_idle_close_of_a_stalled_reader_releases_its_session():
    # Unsent bytes would hold off the handler's EOF until they drain,
    # which a peer that stopped reading never lets happen.
    async def body():
        async with serving(session_timeout=0.3) as server:
            client, connection = await _stalled_connection(
                server,
                {"id": 1, "op": "define", "updates": ["x"]},
                {"id": 2, "op": "validate", "txn": "t.0"},
            )
            for _ in range(100):
                server._send(connection, _PAD)
            assert connection.transport.get_write_buffer_size()
            sessions = server.registry.gauge("server.sessions")
            assert sessions.value == 1
            while sessions.value:
                await asyncio.sleep(0.05)
            counters = server.registry.snapshot()["counters"]
            assert counters["server.idle_closed"] == 1
            assert server.manager.phase("t.0") is TxnPhase.ABORTED
            client.close()

    run(body(), timeout=10.0)


# -- satellite: ServerThread.stop detects a wedged loop ---------------------


def test_server_thread_stop_raises_on_wedged_loop():
    handle = ServerThread(tiny_db).start()
    try:
        # Wedge the loop: a blocking callback the drain cannot preempt.
        handle._loop.call_soon_threadsafe(time.sleep, 1.5)
        with pytest.raises(RuntimeError, match="wedged"):
            handle.stop(timeout=0.2)
    finally:
        # The sleep ends, the stop event (queued behind it) fires, and
        # a second stop() joins the now-exiting thread cleanly.
        handle.stop(timeout=15.0)


def test_server_thread_stop_clean_shutdown_still_works():
    handle = ServerThread(tiny_db).start()
    handle.stop(timeout=10.0)
    assert handle._thread is None
    handle.stop()  # idempotent


# -- satellite: answered-while-parked commands never run --------------------


def test_timed_out_parked_command_cannot_mutate_later():
    async def body():
        manager = CountingManager(tiny_db(), strict=True)
        dispatcher = CommandDispatcher(
            manager, queue_size=32, request_timeout=0.15
        )
        runner = asyncio.ensure_future(dispatcher.run())
        s1 = SessionState(session_id=1, notify=lambda p: None)
        s2 = SessionState(session_id=2, notify=lambda p: None)

        reply = await _request(dispatcher, s1, 1, "define", updates=["x"])
        t1 = reply["txn"]
        await _request(dispatcher, s1, 2, "validate", txn=t1)
        await _request(
            dispatcher, s1, 3, "write", txn=t1, entity="x", value=5
        )
        reply = await _request(dispatcher, s2, 1, "define", updates=["x"])
        t2 = reply["txn"]
        await _request(dispatcher, s2, 2, "validate", txn=t2)
        # Strict mode: t1's uncommitted version parks t2's write.
        future = dispatcher.submit(
            s2, Request(3, "write", {"txn": t2, "entity": "x", "value": 7})
        )
        await asyncio.sleep(0.02)
        assert dispatcher.parked_count == 1
        stale = dispatcher._lock_waiters[t2]
        reply = await future  # deadline passes -> TIMEOUT
        assert reply["error"]["code"] == "TIMEOUT"
        assert dispatcher.parked_count == 0
        assert manager.begin_write_calls[(t2, "x")] == 1

        # The strict commit re-runs every lock waiter; the answered
        # command must not be among them...
        await _request(dispatcher, s1, 4, "commit", txn=t1)
        assert manager.begin_write_calls[(t2, "x")] == 1
        # ...and even a stale direct reference is refused by the
        # done-future guard in _run_command.
        dispatcher._run_command(stale)
        assert manager.begin_write_calls[(t2, "x")] == 1

        await dispatcher.stop()
        await runner

    run(body())


# -- satellite: recursive resume must not double-execute --------------------


def test_recursive_abort_cascade_resumes_each_waiter_once():
    async def body():
        manager = CountingManager(tiny_db())
        dispatcher = CommandDispatcher(
            manager, queue_size=32, request_timeout=5.0
        )
        runner = asyncio.ensure_future(dispatcher.run())
        s1 = SessionState(session_id=1, notify=lambda p: None)
        s2 = SessionState(session_id=2, notify=lambda p: None)
        s3 = SessionState(session_id=3, notify=lambda p: None)

        # t1 holds an in-flight write on x.
        reply = await _request(dispatcher, s1, 1, "define", updates=["x"])
        t1 = reply["txn"]
        await _request(dispatcher, s1, 2, "validate", txn=t1)
        await _request(
            dispatcher, s1, 3, "begin_write", txn=t1, entity="x"
        )

        # A parks on x and will FAIL validation once resumed (x = 1
        # can never satisfy "x >= 50").  Its child C turns that
        # failure into a cascade, which re-enters the resume loop.
        reply = await _request(
            dispatcher, s2, 1, "define", updates=[], input="x >= 50"
        )
        a = reply["txn"]
        reply = await _request(dispatcher, s2, 2, "define", parent=a)
        c = reply["txn"]
        future_a = dispatcher.submit(s2, Request(3, "validate", {"txn": a}))
        await asyncio.sleep(0.02)

        # B parks on x after A and validates fine once resumed.
        reply = await _request(
            dispatcher, s3, 1, "define", updates=[], input="x >= 0"
        )
        b = reply["txn"]
        future_b = dispatcher.submit(s3, Request(2, "validate", {"txn": b}))
        await asyncio.sleep(0.02)
        assert dispatcher.parked_count == 2

        # Aborting t1 resumes the waiters; A's failure cascades to C,
        # recursively re-entering _resume_all_lock_waiters, which
        # already runs B.  The outer (stale) snapshot must skip B.
        await _request(dispatcher, s1, 4, "abort", txn=t1)
        reply_a = await future_a
        reply_b = await future_b
        assert reply_a["ok"] and reply_a["outcome"] == "failed"
        assert c in reply_a["aborted"]
        assert reply_b["ok"] and reply_b["outcome"] == "ok"
        # One parked attempt + exactly one resume each:
        assert manager.validate_calls[a] == 2
        assert manager.validate_calls[b] == 2

        await dispatcher.stop()
        await runner

    run(body())


# -- abort after an acknowledged commit has one meaning ------------------


def test_abort_after_an_acked_commit_is_refused_and_changes_nothing():
    """The session still owns the name after its commit was acked; an
    abort then used to expunge the versions and leave the live root
    view, new readers and recovery with three different answers."""
    async def body():
        async with serving() as server:
            client = await AsyncClient.connect("127.0.0.1", server.port)
            writer = await client.define(updates=["x"])
            await client.validate(writer)
            await client.write(writer, "x", 5)
            assert (await client.commit(writer))["outcome"] == "committed"
            reader = await client.define(input_constraint="x >= 0")
            await client.validate(reader)
            assert await client.read(reader, "x") == 5
            assert (await client.commit(reader))["outcome"] == "committed"

            with pytest.raises(RemoteProtocolError, match="under the root"):
                await client.abort(writer)

            probe = await client.define(input_constraint="x >= 0")
            await client.validate(probe)
            assert (await client.view(probe))["x"] == 5
            assert await client.read(probe, "x") == 5
            manager = server.manager
            assert manager.view(manager.root)["x"] == 5
            assert manager.phase(writer).value == "committed"
            await client.close()

    run(body())


# -- acks follow WAL commit order -------------------------------------------


def test_a_commit_is_answered_before_the_commits_it_releases():
    """The successor's commit parks on its partial-order predecessor;
    the predecessor's commit releases it.  The predecessor is first in
    the WAL, so its reply must go out first — a client that sees the
    successor acked may rely on everything before it being acked."""
    async def body():
        manager = TransactionManager(tiny_db())
        dispatcher = CommandDispatcher(
            manager, queue_size=32, request_timeout=5.0
        )
        runner = asyncio.ensure_future(dispatcher.run())
        s1 = SessionState(session_id=1, notify=lambda p: None)
        s2 = SessionState(session_id=2, notify=lambda p: None)
        first = (await _request(dispatcher, s1, 1, "define"))["txn"]
        second = (
            await _request(
                dispatcher, s2, 1, "define", predecessors=[first]
            )
        )["txn"]
        await _request(dispatcher, s1, 2, "validate", txn=first)
        await _request(dispatcher, s2, 2, "validate", txn=second)

        answered: list[str] = []
        parked = dispatcher.submit(s2, Request(3, "commit", {"txn": second}))
        parked.add_done_callback(lambda _: answered.append(second))
        await asyncio.sleep(0.02)
        assert dispatcher.parked_count == 1
        releasing = dispatcher.submit(
            s1, Request(3, "commit", {"txn": first})
        )
        releasing.add_done_callback(lambda _: answered.append(first))
        assert (await releasing)["outcome"] == "committed"
        assert (await parked)["outcome"] == "committed"
        await asyncio.sleep(0)  # let the last done-callback run
        assert answered == [first, second]

        await dispatcher.stop()
        await runner

    run(body())
