"""WAL record types and their JSONL wire format.

The log is *logical*: one record per successful manager operation, at
the granularity of the Section-5 protocol's own API (define, validate,
read, write, commit, abort, …), not physical page images.  Replay is
therefore a deterministic re-application of protocol state transitions
— and because the manager's version sequence stamps are restored across
checkpoints (see :attr:`VersionStore.sequence_watermark`), every WRITE
record's logged stamp must reproduce exactly, which replay asserts.

Wire format: one JSON object per line,

    {"lsn": 17, "op": "commit", "txn": "t.3", "data": {...}, "crc": N}

``crc`` is the CRC-32 of the canonical JSON of the other four fields.
A record that fails to parse or checksum at the *tail* of the newest
segment is a torn write (crash mid-append) and is truncated; anywhere
else it is corruption and recovery refuses to proceed.
"""

from __future__ import annotations

import json
import re
import zlib
from dataclasses import dataclass
from typing import Any

from ..errors import DurabilityError
from ..protocol.state import (  # noqa: F401 - re-exported
    OP_ABORT,
    OP_COMMIT,
    OP_DEFINE,
    OP_PREPARE,
    OP_READ,
    OP_REASSIGN,
    OP_UNDO_COMMIT,
    OP_VALIDATE,
    OP_WRITE,
)

ALL_OPS = frozenset(
    {
        OP_DEFINE,
        OP_VALIDATE,
        OP_REASSIGN,
        OP_READ,
        OP_WRITE,
        OP_COMMIT,
        OP_UNDO_COMMIT,
        OP_ABORT,
        OP_PREPARE,
    }
)

#: Ops whose loss would lose an acknowledged state transition a client
#: may have observed — these schedule a group-commit flush.  PREPARE is
#: durable: phase 2 of the cross-shard commit only starts once every
#: participant's promise is on disk.
DURABLE_OPS = frozenset({OP_COMMIT, OP_UNDO_COMMIT, OP_ABORT, OP_PREPARE})


def _canonical(payload: dict[str, Any]) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


#: A string ``json.dumps`` would emit verbatim between quotes: printable
#: ASCII with no ``"`` (0x22) and no ``\`` (0x5C).  Transaction names in
#: practice are ``t.root``-style dotted paths, so this always matches on
#: the live path; anything stranger falls back to the full encoder.
_PLAIN_JSON_TEXT = re.compile(rb'^[\x20\x21\x23-\x5B\x5D-\x7E]*$')


def _encode_body(lsn: int, op: str, txn: str, data: dict[str, Any]) -> bytes:
    """Canonical JSON of the four non-crc fields.

    The field names sort as ``data < lsn < op < txn``, so the envelope
    around the one genuinely dynamic value (``data``) is a fixed
    template — built here by byte splicing with a **single**
    ``json.dumps`` call (the data payload) instead of serialising a
    wrapper dict.  ``json.dumps`` keeps ``ensure_ascii`` on, so the
    payload segment is pure ASCII and the splice cannot change the
    byte encoding.  Output is byte-identical to
    ``_canonical({"data": ..., "lsn": ..., "op": ..., "txn": ...})``,
    which the decode side still recomputes to verify the CRC.
    """
    txn_bytes = txn.encode("utf-8", "surrogatepass")
    if type(lsn) is not int or not _PLAIN_JSON_TEXT.match(txn_bytes):
        # A txn name needing JSON escaping (or an exotic lsn type) —
        # take the general path.
        return _canonical(
            {"data": data, "lsn": lsn, "op": op, "txn": txn}
        )
    data_json = json.dumps(
        data, sort_keys=True, separators=(",", ":")
    ).encode("ascii")
    return b'{"data":%b,"lsn":%d,"op":"%b","txn":"%b"}' % (
        data_json,
        lsn,
        op.encode("ascii"),
        txn_bytes,
    )


@dataclass(frozen=True)
class WalRecord:
    """One logical WAL record."""

    lsn: int
    op: str
    txn: str
    data: dict[str, Any]

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise DurabilityError(f"unknown WAL op {self.op!r}")

    @property
    def durable(self) -> bool:
        return self.op in DURABLE_OPS

    def encode(self) -> bytes:
        """The record as one newline-terminated JSONL line.

        ``"crc"`` sorts before the other four field names, so the
        framed line *is* the canonical five-field JSON with the crc
        spliced in front of the already-serialised body — one
        serialisation pass where the commit path used to pay two
        (once to checksum, once to frame).  Byte-identical to the
        original two-pass encoding; the determinism test in
        ``tests/durability/test_records.py`` holds the two against
        each other.
        """
        body = _encode_body(self.lsn, self.op, self.txn, self.data)
        return b'{"crc":%d,%b\n' % (zlib.crc32(body), body[1:])

    def encode_into(self, buffer: bytearray) -> int:
        """Append the framed line to ``buffer``; returns bytes added.

        The appender reuses one preallocated buffer across records so
        the per-append garbage is just the serialised data payload,
        not three throwaway line copies.
        """
        start = len(buffer)
        body = _encode_body(self.lsn, self.op, self.txn, self.data)
        buffer += b'{"crc":%d,' % zlib.crc32(body)
        buffer += memoryview(body)[1:]
        buffer += b"\n"
        return len(buffer) - start

    @classmethod
    def decode(cls, line: bytes) -> "WalRecord":
        """Parse one line; raises :class:`TornRecord` on any damage.

        Damage is indistinguishable between "torn tail" and "bit rot"
        at the record level — the *position* of the bad record (tail of
        the newest segment or not) decides which, and that is the
        replayer's call.
        """
        try:
            payload = json.loads(line)
        except (ValueError, UnicodeDecodeError) as error:
            raise TornRecord(f"undecodable WAL line: {error}") from None
        if not isinstance(payload, dict) or set(payload) != {
            "lsn",
            "op",
            "txn",
            "data",
            "crc",
        }:
            raise TornRecord("malformed WAL record shape")
        crc = payload.pop("crc")
        if crc != zlib.crc32(_canonical(payload)):
            raise TornRecord(
                f"checksum mismatch on WAL record lsn={payload.get('lsn')}"
            )
        try:
            return cls(
                lsn=payload["lsn"],
                op=payload["op"],
                txn=payload["txn"],
                data=payload["data"],
            )
        except DurabilityError as error:
            raise TornRecord(str(error)) from None


class TornRecord(DurabilityError):
    """A WAL line that fails to parse or checksum."""
