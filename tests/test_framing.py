"""The line framer every owned JSON-lines socket reads through.

Unit tests drive :class:`repro.framing.LineProtocol` the way a
transport does (``get_buffer``, copy, ``buffer_updated``) over a fake
transport; the last test checks from the AST that the server and the
replication link have no stream-reader path left beside it.
"""

from __future__ import annotations

import ast
import asyncio
import pathlib

import pytest

from repro.framing import BUFFER_BYTES, LineProtocol
from repro.replication.messages import REPL_MAX_FRAME_BYTES
from repro.server.protocol import MAX_FRAME_BYTES

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


class _Transport:
    def __init__(self) -> None:
        self.closed = False

    def is_closing(self) -> bool:
        return self.closed

    def close(self) -> None:
        self.closed = True


class _Lines(LineProtocol):
    """Records what the framer hands over, and the buffer sizes used."""

    def __init__(self, limit: int = MAX_FRAME_BYTES) -> None:
        super().__init__(limit)
        self.transport = _Transport()
        self.lines: list[bytes] = []
        self.too_long = 0
        self.sizes: set[int] = set()

    def line_received(self, line: bytes) -> None:
        self.lines.append(line)

    def line_too_long(self) -> None:
        self.too_long += 1


def _feed(framer: _Lines, data: bytes, chunk: int | None = None) -> None:
    """What a transport does with incoming ``data``, ``chunk`` bytes
    (or as much as the buffer takes) per read, until it closes."""
    view = memoryview(data)
    while view and not framer.transport.is_closing():
        buffer = framer.get_buffer(-1)
        assert len(buffer) > 0
        framer.sizes.add(len(framer._buffer))
        count = min(len(buffer), len(view), chunk or len(view))
        buffer[:count] = view[:count]
        framer.buffer_updated(count)
        view = view[count:]


_STREAM = b'{"id":1,"op":"ping"}\n{"id":2,"op":"hello"}\n{"id":3}\n'
_LINES = [line + b"\n" for line in _STREAM.split(b"\n")[:-1]]


def test_the_buffer_holds_one_request_frame():
    assert BUFFER_BYTES == MAX_FRAME_BYTES + 2


def test_a_frame_split_at_every_offset_arrives_whole():
    for offset in range(1, len(_STREAM)):
        framer = _Lines()
        _feed(framer, _STREAM[:offset])
        _feed(framer, _STREAM[offset:])
        assert framer.lines == _LINES, offset
    framer = _Lines()
    _feed(framer, _STREAM, chunk=1)
    assert framer.lines == _LINES


def test_several_frames_in_one_read():
    framer = _Lines()
    _feed(framer, _STREAM * 50)
    assert framer.lines == _LINES * 50
    assert framer.sizes == {BUFFER_BYTES}


def test_blank_lines_are_lines():
    framer = _Lines()
    _feed(framer, b"\n\r\n" + _STREAM)
    assert framer.lines == [b"\n", b"\r\n", *_LINES]


def test_a_partial_line_is_kept_across_a_full_buffer():
    # Frames end off the buffer's boundary, so the partial frame at its
    # end moves to the front rather than growing the buffer.
    frame = b"[" + b"1," * 9000 + b"1]\n"
    framer = _Lines()
    _feed(framer, frame * 20, chunk=7000)
    assert framer.lines == [frame] * 20
    assert framer.sizes == {BUFFER_BYTES}


def test_a_frame_of_exactly_the_limit_is_a_line():
    frame = b"x" * (MAX_FRAME_BYTES - 1) + b"\n"
    framer = _Lines()
    _feed(framer, frame + _STREAM)
    assert framer.lines == [frame, *_LINES]
    assert framer.too_long == 0
    assert not framer.transport.closed


def test_one_byte_over_the_limit_closes_after_the_frame():
    framer = _Lines()
    _feed(framer, b"x" * MAX_FRAME_BYTES + b"\n" + _STREAM)
    assert framer.lines == []
    assert framer.too_long == 1
    assert framer.transport.closed


def test_an_overlong_frame_is_discarded_up_to_its_end():
    framer = _Lines()
    _feed(framer, b"x" * (MAX_FRAME_BYTES + 10))
    assert framer.too_long == 1
    assert not framer.transport.closed  # its end is not read yet
    _feed(framer, b"x" * (3 * MAX_FRAME_BYTES))
    assert not framer.transport.closed
    _feed(framer, b"xx\n" + _STREAM)
    assert framer.transport.closed
    assert framer.lines == []
    assert framer.too_long == 1


def test_no_line_is_delivered_after_close():
    class Closing(_Lines):
        def line_received(self, line: bytes) -> None:
            super().line_received(line)
            self.transport.close()

    framer = Closing()
    _feed(framer, _STREAM)
    assert framer.lines == _LINES[:1]


def test_a_replication_frame_grows_the_buffer_then_it_shrinks_back():
    snapshot = b'{"kind":"snapshot","pad":"' + b"s" * 300_000 + b'"}\n'
    tail = b'{"kind":"records"'  # the next frame, not complete yet
    framer = _Lines(REPL_MAX_FRAME_BYTES)
    _feed(framer, snapshot + _STREAM + tail, chunk=16 * 1024)
    assert framer.lines == [snapshot, *_LINES]
    assert max(framer.sizes) > 300_000
    assert len(framer._buffer) == BUFFER_BYTES  # back to the base
    _feed(framer, b"}\n")
    assert framer.lines[-1] == tail + b"}\n"
    assert framer.too_long == 0


def test_a_replication_frame_is_bounded_too():
    framer = _Lines(4 * BUFFER_BYTES)
    _feed(framer, b"r" * (4 * BUFFER_BYTES) + b"\n", chunk=32 * 1024)
    assert framer.too_long == 1
    assert framer.transport.closed
    assert max(framer.sizes) <= 4 * BUFFER_BYTES
    assert len(framer._buffer) == BUFFER_BYTES


def test_drain_waits_while_writing_is_paused():
    async def body():
        framer = _Lines()
        framer.connection_made(framer.transport)
        await framer.drain()  # not paused: returns at once
        framer.pause_writing()
        waiting = asyncio.ensure_future(framer.drain())
        await asyncio.sleep(0)
        assert not waiting.done()
        framer.resume_writing()
        await waiting
        framer.pause_writing()
        waiting = asyncio.ensure_future(framer.drain())
        await asyncio.sleep(0)
        framer.connection_lost(None)
        with pytest.raises(ConnectionResetError):
            await waiting
        await framer.wait_closed()

    asyncio.run(body())


# -- one framer: no stream-reader path left in the owned sockets -------------

#: asyncio's stream API, which reads through a StreamReader in 256 KiB
#: chunks.
_STREAM_API = {"StreamReader", "StreamWriter", "open_connection", "start_server"}


def _stream_api_users(package: str) -> set[str]:
    users = set()
    for path in sorted((SRC / package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (
                node.attr
                if isinstance(node, ast.Attribute)
                else node.id
                if isinstance(node, ast.Name)
                else None
            )
            if name in _STREAM_API:
                users.add(f"{package}/{path.name}")
    return users


def test_only_the_metrics_endpoint_uses_asyncio_streams():
    # metrics_http serves HTTP scrapes, not JSON lines.
    assert _stream_api_users("server") == {"server/metrics_http.py"}
    assert _stream_api_users("replication") == set()
