"""Closed-loop driver: scripts over live connections, timed client-side.

Each connection runs one script at a time — define, validate, its
reads and writes, commit — and starts the next only when the previous
one has ended, so a slow server receives less load (a *closed* loop;
the suite always uses two connections, or one for the traced run).
Unlike ``repro.server.loadgen.run_loadgen`` nothing is defined ahead of
the timed window: ``define`` is part of every measured transaction and
the server's live set is the connection count, not the script count.

An aborted attempt (cascade, failed validation, timeout, unsatisfied
output condition) restarts the script under a fresh transaction, up to
:data:`MAX_RESTARTS` times; the transaction's latency runs from its
first define to its commit acknowledgement, restarts included.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.server.client import AsyncClient
from repro.server.errors import (
    WIRE_FAULT_CODES,
    BusyError,
    RemoteAborted,
    RemoteProtocolError,
    RequestTimeout,
    ServerError,
)

from spans import SpanRecorder
from workloads import Script

MAX_RESTARTS = 8
BUSY_BACKOFF_S = 0.002
VALUE_HIGH = 10_000
#: Frames a traced connection keeps for the encode/decode timing loops.
FRAME_SAMPLE = 2000


@dataclass
class Tally:
    """Everything one run's connections measured, client-side."""

    scripts: int = 0
    attempts: int = 0
    committed: int = 0
    aborted_attempts: int = 0
    gave_up: int = 0
    requests: int = 0
    busy_retries: int = 0
    wire_faults: int = 0
    validate_failed: int = 0
    #: Seconds the driver spent waiting on requests (a parked commit
    #: counts until its barrier pong, not until its late reply).
    awaited_s: float = 0.0
    #: Per-op round trips in ms, keyed by wire op, and in the same
    #: order the tag of the script each request belonged to.
    op_ms: dict[str, list[float]] = field(default_factory=dict)
    op_tag: dict[str, list[Any]] = field(default_factory=dict)
    #: First define -> commit ack, per committed script, in ms.
    txn_ms: list[float] = field(default_factory=list)
    #: Names (and commit LSNs) of acknowledged commits, for recovery
    #: checks; ``txn_tags`` are the scripts' tags in the same order.
    acked: list[str] = field(default_factory=list)
    acked_lsn: list[int] = field(default_factory=list)
    txn_tags: list[Any] = field(default_factory=list)

    def observe(self, op: str, elapsed_s: float, tag: Any) -> None:
        self.op_ms.setdefault(op, []).append(elapsed_s * 1000.0)
        self.op_tag.setdefault(op, []).append(tag)


class Conn:
    """One client connection with timing, BUSY retry and root spans."""

    def __init__(
        self,
        client: AsyncClient,
        tally: Tally,
        spans: SpanRecorder | None = None,
    ) -> None:
        self.client = client
        self.tally = tally
        self.spans = spans
        #: Traced run: (request, reply) pairs kept for the standalone
        #: frame encode/decode loops, up to :data:`FRAME_SAMPLE`.
        self.frames: list[tuple[dict, dict]] | None = None

    @classmethod
    async def open(
        cls,
        port: int,
        tally: Tally,
        spans: SpanRecorder | None = None,
    ) -> "Conn":
        client = await AsyncClient.connect("127.0.0.1", port, retries=50)
        return cls(client, tally, spans)

    async def close(self) -> None:
        await self.client.close()

    async def _timed(
        self, op: str, params: dict[str, Any], tag: Any = None
    ) -> dict:
        """One request; BUSY backs off and retries the same request."""
        tally = self.tally
        while True:
            started = perf_counter()
            try:
                reply = await self.client.request(op, **params)
            except BusyError:
                tally.busy_retries += 1
                await asyncio.sleep(BUSY_BACKOFF_S)
                continue
            except ServerError as error:
                tally.observe(op, perf_counter() - started, tag)
                tally.requests += 1
                if error.code in WIRE_FAULT_CODES:
                    tally.wire_faults += 1
                raise
            tally.observe(op, perf_counter() - started, tag)
            tally.requests += 1
            frames = self.frames
            if frames is not None and len(frames) < FRAME_SAMPLE:
                frames.append(({"op": op, **params}, reply))
            return reply

    async def request(self, op: str, tag: Any = None, **params: Any) -> dict:
        """A timed request; in a traced run also the root span."""
        index = None
        if self.spans is not None:
            index = self.spans.open(f"request.{op}", tag)
        started = perf_counter()
        try:
            return await self._timed(op, params, tag)
        finally:
            self.tally.awaited_s += perf_counter() - started
            if index is not None:
                self.spans.close(index)

    async def issue(
        self, op: str, tag: Any = None, **params: Any
    ) -> "asyncio.Task[dict]":
        """Send a request that is expected to park; do not await it.

        The ping that follows is a barrier: replies leave a connection
        in the order the server resolved them, so once the pong is back
        the request has either been answered (the task is done) or is
        parked server-side.  The root span covers send -> pong; when the
        parked reply is finally produced, that work runs inside the
        request that released it.
        """
        index = None
        if self.spans is not None:
            index = self.spans.open(f"request.{op}", tag)
        started = perf_counter()
        try:
            task = asyncio.ensure_future(self._timed(op, params, tag))
            await asyncio.sleep(0)  # let the task write its frame first
            await self._timed("ping", {}, tag)
        finally:
            self.tally.awaited_s += perf_counter() - started
            if index is not None:
                self.spans.close(index)
        return task


_ABORTS = (RemoteAborted, RequestTimeout, RemoteProtocolError)


class ScriptRun:
    """One script driven a wire request at a time, restarts included.

    ``step()`` performs the next request of the current attempt; the
    free-running workloads just loop over it, ``cad_coop`` interleaves
    the steps of two connections in a seed-drawn order.  With
    ``park_commit`` the commit is issued without waiting for its reply
    (it names an in-flight predecessor, so the server parks it) and
    ``settle()`` collects the outcome later.
    """

    def __init__(
        self,
        conn: Conn,
        script: Script,
        *,
        tag: Any = None,
        predecessors: tuple[str, ...] = (),
        park_commit: bool = False,
    ) -> None:
        self.conn = conn
        self.script = script
        self.tag = tag
        self.predecessors = predecessors
        self.park_commit = park_commit
        self.done = False
        self.committed = False
        self.name: str | None = None
        self._attempt = 0
        self._stage = -2  # -2 define, -1 validate, 0.. accesses, n commit
        self._values: dict[str, int] = {}
        self._started: float | None = None
        self._parked: "asyncio.Task[dict] | None" = None
        conn.tally.scripts += 1

    @property
    def parked(self) -> bool:
        return self._parked is not None

    @property
    def at_commit(self) -> bool:
        return self._stage == len(self.script.steps)

    async def run(self) -> bool:
        while not self.done:
            await self.step()
        return self.committed

    async def step(self) -> None:
        if self.done or self.parked:
            raise RuntimeError("step() on a finished or parked script")
        conn, script = self.conn, self.script
        try:
            if self._stage == -2:
                if self._started is None:
                    self._started = perf_counter()
                conn.tally.attempts += 1
                self._values = {}
                reply = await conn.request(
                    "define",
                    self.tag,
                    updates=list(script.updates),
                    input=script.input,
                    output=script.output,
                    predecessors=list(self.predecessors),
                )
                self.name = str(reply["txn"])
                self._stage = -1
            elif self._stage == -1:
                reply = await conn.request(
                    "validate", self.tag, txn=self.name
                )
                if reply.get("outcome") != "ok":
                    # The server already aborted it.
                    conn.tally.validate_failed += 1
                    self._attempt_failed()
                else:
                    self._stage = 0
            elif self._stage < len(script.steps):
                access = script.steps[self._stage]
                if access[0] == "r":
                    reply = await conn.request(
                        "read", self.tag, txn=self.name, entity=access[1]
                    )
                    self._values[access[1]] = int(reply["value"])
                else:
                    _, entity, base, delta = access
                    value = min(
                        VALUE_HIGH, self._values.get(base, 0) + delta
                    )
                    await conn.request(
                        "write",
                        self.tag,
                        txn=self.name,
                        entity=entity,
                        value=value,
                    )
                self._stage += 1
            elif self.park_commit:
                self._parked = await conn.issue(
                    "commit", self.tag, txn=self.name
                )
                if self._parked.done():
                    await self.settle()
            else:
                reply = await conn.request(
                    "commit", self.tag, txn=self.name
                )
                await self._after_commit(reply)
        except _ABORTS:
            await self._quiet_abort()
            self._attempt_failed()

    async def settle(self) -> None:
        """Collect a parked commit's outcome (awaits until released)."""
        task, self._parked = self._parked, None
        assert task is not None
        try:
            reply = await task
        except _ABORTS:
            await self._quiet_abort()
            self._attempt_failed()
            return
        await self._after_commit(reply)

    async def _after_commit(self, reply: dict) -> None:
        tally = self.conn.tally
        if reply.get("outcome") != "committed":
            # e.g. output condition unsatisfied: abort and restart.
            await self._quiet_abort()
            self._attempt_failed()
            return
        assert self._started is not None and self.name is not None
        tally.txn_ms.append((perf_counter() - self._started) * 1000.0)
        tally.txn_tags.append(self.tag)
        tally.committed += 1
        tally.acked.append(self.name)
        lsn = reply.get("commit_lsn")
        if isinstance(lsn, int):
            tally.acked_lsn.append(lsn)
        self.committed = True
        self.done = True

    async def _quiet_abort(self) -> None:
        try:
            await self.conn.request("abort", self.tag, txn=self.name)
        except ServerError:
            pass  # already terminated (cascade)

    def _attempt_failed(self) -> None:
        self.conn.tally.aborted_attempts += 1
        self._attempt += 1
        self._stage = -2
        if self._attempt > MAX_RESTARTS:
            self.conn.tally.gave_up += 1
            self.done = True


async def run_scripts(
    conn: Conn, scripts: list[Script], tags: list[Any]
) -> None:
    """One connection's closed loop over its share of the scripts."""
    for script, tag in zip(scripts, tags):
        await ScriptRun(conn, script, tag=tag).run()


def abort_notifications(conns: list[Conn]) -> int:
    """Cascade victims the server told these sessions about."""
    return sum(
        1
        for conn in conns
        for event in conn.client.events
        if event.get("event") == "abort"
    )
