"""Client library for the transaction service — sync and asyncio.

:class:`AsyncClient` multiplexes pipelined requests over one
connection (each request carries a fresh id; responses resolve by id,
so a parked request — a blocked read, a commit waiting on a
predecessor — does not stall later ones).  :class:`Client` is the
synchronous counterpart: one request at a time over a blocking socket,
for scripts and tests.

Both surface failed responses as the typed exceptions of
:mod:`repro.server.errors` (``BusyError``, ``RequestTimeout``,
``RemoteAborted``, …) and collect unsolicited server events — most
importantly cascading-abort notifications — on ``client.events``
(the async client additionally feeds ``event_queue`` for awaiting).

Read-your-writes session tokens: every committed reply from a durable
server carries the commit's WAL LSN (``commit_lsn``), which both
clients capture as :attr:`session_lsn` — the highest LSN this session
has been acknowledged for.  ``follower_read`` passes it as
``min_applied_lsn`` by default, so a session that just committed never
reads a follower view older than its own writes (the server rejects
the read with ``FOLLOWER_READ`` instead, and the caller can retry or
go to the primary).  Pass ``read_your_writes=False`` for a plain
bounded-stale read, or an explicit ``min_applied_lsn`` to override the
token.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
from typing import Any, Iterable

from ..framing import LineProtocol
from .errors import ServerError, error_for_code
from .protocol import (
    MAX_FRAME_BYTES,
    decode_frame,
    encode_frame,
    is_event,
)


def _commit_lsn(fields: dict[str, Any]) -> int:
    lsn = fields.get("commit_lsn")
    return lsn if isinstance(lsn, int) and not isinstance(lsn, bool) else 0


def _raise_for_response(response: dict[str, Any]) -> dict[str, Any]:
    if response.get("ok"):
        return response
    error = response.get("error") or {}
    raise error_for_code(
        str(error.get("code", "INTERNAL")),
        str(error.get("message", "request failed")),
        error.get("details"),
    )


def _given(**params: Any) -> dict[str, Any]:
    """The parameters that were actually passed (not ``None``)."""
    return {key: value for key, value in params.items() if value is not None}


class _Surface:
    """One method per row of :data:`repro.server.protocol.OPS`.

    Each builds the request's parameters and says how to decode the
    reply; the transport's ``_invoke(op, params, decode=None,
    on_error=None)`` sends it and returns ``decode(reply)`` — from
    :class:`Client` directly, from :class:`AsyncClient` as an awaitable
    — after handing a :class:`ServerError` to ``on_error`` first.
    """

    _session_lsn = 0

    @property
    def session_lsn(self) -> int:
        """Read-your-writes token: highest acknowledged commit LSN."""
        return self._session_lsn

    def hello(self) -> Any:
        return self._invoke("hello", {})

    def ping(self) -> Any:
        return self._invoke("ping", {}, lambda reply: bool(reply.get("pong")))

    def stats(self) -> Any:
        return self._invoke("stats", {})

    def define(
        self,
        updates: Iterable[str] = (),
        input_constraint: str = "true",
        output_condition: str = "true",
        parent: str | None = None,
        predecessors: Iterable[str] = (),
    ) -> Any:
        params = _given(
            updates=list(updates),
            input=input_constraint,
            output=output_condition,
            parent=parent,
            predecessors=list(predecessors) or None,
        )
        return self._invoke("define", params, lambda reply: str(reply["txn"]))

    def validate(self, txn: str) -> Any:
        return self._invoke("validate", {"txn": txn})

    def read(self, txn: str, entity: str) -> Any:
        return self._invoke(
            "read",
            {"txn": txn, "entity": entity},
            lambda reply: int(reply["value"]),
        )

    def write(self, txn: str, entity: str, value: int) -> Any:
        return self._invoke(
            "write", {"txn": txn, "entity": entity, "value": value}
        )

    def begin_write(self, txn: str, entity: str) -> Any:
        return self._invoke("begin_write", {"txn": txn, "entity": entity})

    def end_write(self, txn: str, entity: str, value: int) -> Any:
        return self._invoke(
            "end_write", {"txn": txn, "entity": entity, "value": value}
        )

    def commit(self, txn: str) -> Any:
        return self._invoke(
            "commit", {"txn": txn}, self._committed, self._commit_failed
        )

    def _committed(self, reply: dict[str, Any]) -> dict[str, Any]:
        self._session_lsn = max(self._session_lsn, _commit_lsn(reply))
        return reply

    def _commit_failed(self, error: ServerError) -> None:
        """An *indeterminate* failure (replication-ack timeout) means
        the commit is durable locally: the session has still observed
        its own write, so the token advances."""
        if error.details.get("indeterminate"):
            self._committed(error.details)

    def prepare(
        self,
        txn: str,
        gid: str,
        participants: dict[str, str],
        coordinator: int,
    ) -> Any:
        """2PC phase 1 (what a sharded front sends its shards)."""
        return self._invoke(
            "prepare",
            {
                "txn": txn,
                "gid": gid,
                "participants": participants,
                "coordinator": coordinator,
            },
        )

    def abort(self, txn: str, reason: str | None = None) -> Any:
        return self._invoke("abort", _given(txn=txn, reason=reason))

    def view(self, txn: str) -> Any:
        return self._invoke(
            "view", {"txn": txn}, lambda reply: dict(reply["view"])
        )

    def follower_read(
        self,
        entity: str | None = None,
        *,
        max_lag_lsn: int | None = None,
        min_applied_lsn: int | None = None,
        read_your_writes: bool = True,
    ) -> Any:
        """A bounded-stale read off this node's replicated state.

        With ``read_your_writes`` (the default) the session's commit
        token is sent as ``min_applied_lsn`` when no explicit bound is
        given, so the view can never predate this session's own acked
        commits.
        """
        if min_applied_lsn is None and read_your_writes:
            min_applied_lsn = self._session_lsn or None
        return self._invoke(
            "follower_read",
            _given(
                entity=entity,
                max_lag_lsn=max_lag_lsn,
                min_applied_lsn=min_applied_lsn,
            ),
        )

    def repl_status(self) -> Any:
        return self._invoke("repl_status", {})

    def promote(self, listen_port: int | None = None) -> Any:
        return self._invoke("promote", _given(listen_port=listen_port))


class _Replies(LineProtocol):
    """An :class:`AsyncClient`'s framer: hands it each line as read."""

    def __init__(self, client: "AsyncClient") -> None:
        super().__init__(MAX_FRAME_BYTES)
        self._client = client

    def line_received(self, line: bytes) -> None:
        self._client._line_received(line)

    def connection_lost(self, exc: Exception | None) -> None:
        super().connection_lost(exc)
        self._client._connection_lost()


class AsyncClient(_Surface):
    """One connection, pipelined requests, routed inside the read.

    Each reply resolves its request's future in the read callback that
    completed the line (there is no reader Task), and events are
    queued there too.
    """

    def __init__(self) -> None:
        self._stream = _Replies(self)
        self._ids = itertools.count(1)
        self._pending: dict[int, "asyncio.Future[dict[str, Any]]"] = {}
        self.events: list[dict[str, Any]] = []
        self.event_queue: "asyncio.Queue[dict[str, Any]]" = (
            asyncio.Queue()
        )
        self._closed = False

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retries: int = 0,
        retry_delay: float = 0.2,
    ) -> "AsyncClient":
        """Connect, optionally retrying while the server comes up."""
        loop = asyncio.get_running_loop()
        last: OSError | None = None
        for attempt in range(retries + 1):
            client = cls()
            try:
                await loop.create_connection(
                    lambda: client._stream, host, port
                )
                return client
            except OSError as error:
                last = error
                if attempt < retries:
                    await asyncio.sleep(retry_delay)
        assert last is not None
        raise last

    def _line_received(self, line: bytes) -> None:
        try:
            frame = decode_frame(line)
        except ServerError:
            self._stream.transport.close()  # an undecodable reply
            return
        if is_event(frame):
            self.events.append(frame)
            self.event_queue.put_nowait(frame)
            return
        future = self._pending.pop(frame.get("id"), None)
        if future is not None and not future.done():
            future.set_result(frame)

    def _connection_lost(self) -> None:
        self._closed = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    ConnectionError("connection closed by server")
                )
        self._pending.clear()

    async def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request and await its response (raises on error)."""
        if self._closed:
            raise ConnectionError("client is closed")
        request_id = next(self._ids)
        future: "asyncio.Future[dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        self._stream.transport.write(
            encode_frame({"id": request_id, "op": op, **params})
        )
        await self._stream.drain()
        response = await future
        return _raise_for_response(response)

    async def close(self) -> None:
        self._closed = True
        self._stream.transport.close()
        await self._stream.wait_closed()

    async def _invoke(self, op, params, decode=None, on_error=None):
        try:
            reply = await self.request(op, **params)
        except ServerError as error:
            if on_error is not None:
                on_error(error)
            raise
        return reply if decode is None else decode(reply)


class Client(_Surface):
    """Blocking one-request-at-a-time client.

    Unsolicited event frames that arrive while waiting for a response
    are buffered on :attr:`events` (call :meth:`poll_events` to drain
    them without issuing a request — it pings the server, and every
    event written before the pong arrives ahead of it).
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._ids = itertools.count(1)
        self.events: list[dict[str, Any]] = []

    @classmethod
    def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout: float = 30.0,
        retries: int = 0,
        retry_delay: float = 0.2,
    ) -> "Client":
        import time as _time

        last: OSError | None = None
        for attempt in range(retries + 1):
            try:
                sock = socket.create_connection(
                    (host, port), timeout=timeout
                )
                return cls(sock)
            except OSError as error:
                last = error
                if attempt < retries:
                    _time.sleep(retry_delay)
        assert last is not None
        raise last

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        request_id = next(self._ids)
        self._file.write(
            encode_frame({"id": request_id, "op": op, **params})
        )
        self._file.flush()
        while True:
            line = self._file.readline()
            if not line:
                raise ConnectionError("connection closed by server")
            frame = decode_frame(line)
            if is_event(frame):
                self.events.append(frame)
                continue
            if frame.get("id") != request_id:
                continue  # a stale parked response; not ours
            return _raise_for_response(frame)

    def close(self) -> None:
        try:
            self._file.close()
        except (OSError, ValueError):
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _invoke(self, op, params, decode=None, on_error=None):
        try:
            reply = self.request(op, **params)
        except ServerError as error:
            if on_error is not None:
                on_error(error)
            raise
        return reply if decode is None else decode(reply)

    def poll_events(self) -> list[dict[str, Any]]:
        """Ping; return and clear the events that arrived before the pong."""
        self.ping()
        drained = list(self.events)
        self.events.clear()
        return drained
