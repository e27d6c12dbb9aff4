"""The one line framer every JSON-lines socket of the system reads through.

:class:`LineProtocol` is an :class:`asyncio.BufferedProtocol`: the
transport ``recv_into``\\ s a buffer the connection keeps for its whole
life, and each complete ``\\n``-terminated line is handed to
:meth:`LineProtocol.line_received` inside the read callback itself — no
reader Task, no :class:`asyncio.StreamReader` queue between the socket
and the code that acts on a line.  The stream transport's default path
reads every chunk into a fresh 256 KiB ``bytes`` instead, which glibc
may serve from ``mmap`` (two page faults and tens of microseconds per
read, depending on the process's allocation history).

The buffer starts at :data:`BUFFER_BYTES`, enough for one request frame
(``repro.server.protocol.MAX_FRAME_BYTES``).  A connection whose
``limit`` is larger (the replication link, whose snapshot frames may
reach ``repro.replication.messages.REPL_MAX_FRAME_BYTES``) grows it,
doubling, for a longer line and shrinks it back once that line is
consumed.  A line longer than ``limit`` (newline included) calls
:meth:`LineProtocol.line_too_long`; the framer then discards the rest of
that line as it arrives and closes the connection after it — closing
with unread bytes in the socket would send the peer an RST that can
destroy the reply the hook just wrote.

Writes go straight to :attr:`LineProtocol.transport`; :meth:`drain`
waits while the transport has paused writing (its buffer above the
high-water mark), like :meth:`asyncio.StreamWriter.drain`.
"""

from __future__ import annotations

import asyncio

#: A connection's read buffer: one 64 KiB request frame plus two bytes.
BUFFER_BYTES = 64 * 1024 + 2


class LineProtocol(asyncio.BufferedProtocol):
    """Newline-framed reads into one kept buffer, and an awaitable drain.

    Subclasses implement :meth:`line_received`; they may extend
    :meth:`connection_made` / :meth:`connection_lost` (calling these)
    and override :meth:`line_too_long`.  No line is delivered once the
    transport is closing.
    """

    def __init__(self, limit: int) -> None:
        #: Longest accepted line, newline included.
        self.limit = limit
        self.transport: asyncio.Transport | None = None
        self._buffer = bytearray(BUFFER_BYTES)
        self._view = memoryview(self._buffer)
        self._start = 0  # first byte of the line being assembled
        self._end = 0  # end of the bytes read so far
        self._discarding = False  # inside a line past ``limit``
        self._paused = False
        self._lost = False
        self._drain_waiters: list[asyncio.Future[None]] = []
        self._lost_waiter: asyncio.Future[None] | None = None

    # -- hooks ---------------------------------------------------------------

    def line_received(self, line: bytes) -> None:
        """One complete line, its ``\\n`` included."""
        raise NotImplementedError

    def line_too_long(self) -> None:
        """A line exceeds ``limit``; the connection closes after it."""

    # -- asyncio protocol ----------------------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self._lost_waiter = asyncio.get_running_loop().create_future()

    def connection_lost(self, exc: Exception | None) -> None:
        self._lost = True
        self._wake_drainers()
        if self._lost_waiter is not None and not self._lost_waiter.done():
            self._lost_waiter.set_result(None)

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._end == len(self._buffer):
            self._make_room()
        return self._view[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        buffer = self._buffer
        start, end = self._start, self._end + nbytes
        if self._discarding:
            newline = buffer.find(b"\n", start, end)
            self._start = self._end = 0
            if newline >= 0:
                self._discarding = False
                self.transport.close()
            return
        closing = self.transport.is_closing
        limit = self.limit
        while not closing():
            newline = buffer.find(b"\n", start, end)
            if newline < 0:
                if end - start >= limit:  # it cannot end within limit
                    self._overrun(ended=False)
                    return
                break
            if newline - start >= limit:
                self._overrun(ended=True)
                return
            line = self._view[start : newline + 1].tobytes()
            start = newline + 1
            self.line_received(line)
        if start == end:
            start = end = 0
        elif len(buffer) > BUFFER_BYTES and end - start < BUFFER_BYTES:
            # The long line is consumed: back to the base size.
            base = bytearray(BUFFER_BYTES)
            base[: end - start] = self._view[start:end]
            self._buffer, self._view = base, memoryview(base)
            start, end = 0, end - start
        self._start, self._end = start, end

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_drainers()

    # -- for users -----------------------------------------------------------

    async def drain(self) -> None:
        """Wait until the transport accepts writes again.

        Returns at once while writing is not paused; raises
        :class:`ConnectionResetError` once the connection is lost.
        """
        if self._paused and not self._lost:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter
        if self._lost:
            raise ConnectionResetError("connection lost")

    async def wait_closed(self) -> None:
        """Wait until the connection is lost (or closed by either side)."""
        if self._lost_waiter is not None:
            await asyncio.shield(self._lost_waiter)

    # -- internals -----------------------------------------------------------

    def _wake_drainers(self) -> None:
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()

    def _make_room(self) -> None:
        """The buffer is full: move the partial line to the front or,
        when it already starts there, double the buffer (a line longer
        than the buffer but within ``limit``)."""
        pending = self._end - self._start
        if self._start:
            self._view[:pending] = self._view[self._start : self._end]
        else:
            grown = bytearray(min(2 * len(self._buffer), self.limit))
            grown[:pending] = self._view[:pending]
            self._buffer, self._view = grown, memoryview(grown)
        self._start, self._end = 0, pending

    def _overrun(self, *, ended: bool) -> None:
        """Report a line past ``limit``, drop what is buffered, and
        close now (``ended``: its newline was read) or after its end."""
        self.line_too_long()
        self._start = self._end = 0
        if len(self._buffer) > BUFFER_BYTES:
            self._buffer = bytearray(BUFFER_BYTES)
            self._view = memoryview(self._buffer)
        if ended:
            self.transport.close()
        else:
            self._discarding = True
