"""Typed wire-protocol error codes and client-side exceptions.

Every failed request carries one of the :class:`ErrorCode` values so
clients can react programmatically instead of parsing messages.  The
codes split into three families:

* **framing** — ``MALFORMED`` (bad JSON, bad shape, oversized frame)
  and ``UNKNOWN_OP``: the request never reached the manager;
* **admission** — ``BUSY`` (command queue full: backpressure, retry
  later), ``TIMEOUT`` (request deadline passed while queued or while
  parked on a blocked protocol step), ``SHUTTING_DOWN`` (server is
  draining), ``CONFLICT`` (another request is already parked on the
  same transaction);
* **protocol** — ``NOT_OWNER`` / ``UNKNOWN_TXN`` (session-layer
  ownership), ``INVALID_ARG`` (bad parameter or unparseable
  predicate), ``PROTOCOL`` (the manager rejected an illegal step),
  ``ABORTED`` (the transaction was aborted under the request — e.g. a
  cascading abort while the request was parked), ``INTERNAL`` (a bug;
  loadgen counts these as wire-protocol errors).

The client library raises :class:`ServerError` subclasses keyed on the
code (:func:`error_for_code`).
"""

from __future__ import annotations

import enum
from typing import Any

from ..errors import ReproError


class ErrorCode(enum.Enum):
    """Every error a response frame can carry."""

    MALFORMED = "MALFORMED"
    UNKNOWN_OP = "UNKNOWN_OP"
    BUSY = "BUSY"
    TIMEOUT = "TIMEOUT"
    SHUTTING_DOWN = "SHUTTING_DOWN"
    CONFLICT = "CONFLICT"
    NOT_OWNER = "NOT_OWNER"
    UNKNOWN_TXN = "UNKNOWN_TXN"
    INVALID_ARG = "INVALID_ARG"
    PROTOCOL = "PROTOCOL"
    ABORTED = "ABORTED"
    INTERNAL = "INTERNAL"
    REDIRECT = "REDIRECT"
    FOLLOWER_READ = "FOLLOWER_READ"

    def __str__(self) -> str:
        return self.value


#: Codes that indicate a server/framing bug rather than an expected
#: application condition — a healthy client/server pair produces zero
#: of these (the loadgen's "wire-protocol errors" count).
WIRE_FAULT_CODES = frozenset(
    {ErrorCode.MALFORMED, ErrorCode.UNKNOWN_OP, ErrorCode.INTERNAL}
)


def error_payload(
    code: ErrorCode, message: str, **details: Any
) -> dict[str, Any]:
    """The ``error`` object embedded in a failed response frame."""
    payload: dict[str, Any] = {"code": code.value, "message": message}
    if details:
        payload["details"] = details
    return payload


class ServerError(ReproError):
    """A request failed with a typed wire-protocol error."""

    code = ErrorCode.INTERNAL

    def __init__(
        self,
        message: str,
        code: ErrorCode | None = None,
        details: dict[str, Any] | None = None,
    ) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code
        self.details = details or {}


class BusyError(ServerError):
    """The server's command queue is full — back off and retry."""

    code = ErrorCode.BUSY


class RequestTimeout(ServerError):
    """The request's deadline passed before the step completed."""

    code = ErrorCode.TIMEOUT


class ShuttingDown(ServerError):
    """The server is draining and admits no new requests."""

    code = ErrorCode.SHUTTING_DOWN


class NotOwner(ServerError):
    """The transaction belongs to another session."""

    code = ErrorCode.NOT_OWNER


class UnknownTransaction(ServerError):
    """The named transaction does not exist."""

    code = ErrorCode.UNKNOWN_TXN


class InvalidArgument(ServerError):
    """A request parameter is missing, mistyped, or unparseable."""

    code = ErrorCode.INVALID_ARG


class RemoteProtocolError(ServerError):
    """The manager rejected the step (illegal phase transition etc.)."""

    code = ErrorCode.PROTOCOL


class RemoteAborted(ServerError):
    """The transaction was aborted out from under the request."""

    code = ErrorCode.ABORTED


class MalformedFrame(ServerError):
    """The peer sent an undecodable or oversized frame."""

    code = ErrorCode.MALFORMED


class UnknownOperation(ServerError):
    """The request named an operation the server does not implement."""

    code = ErrorCode.UNKNOWN_OP


class ConflictingRequest(ServerError):
    """Another request is already parked on the same transaction."""

    code = ErrorCode.CONFLICT


class NotPrimary(ServerError):
    """The operation mutates state but this node is a follower.

    ``details`` carries the primary's last known address (``host``,
    ``port``) so the client can reconnect there.
    """

    code = ErrorCode.REDIRECT


class StaleRead(ServerError):
    """A follower read's staleness bound cannot currently be met.

    ``details`` carries the follower's ``applied_lsn`` and current
    ``lag_lsn`` so the client can retry, loosen its bound, or go to
    the primary.
    """

    code = ErrorCode.FOLLOWER_READ


#: Each class above names its own code; the decoder reads it off them.
_ERROR_CLASSES: dict[ErrorCode, type[ServerError]] = {
    cls.code: cls for cls in (ServerError, *ServerError.__subclasses__())
}


def error_for_code(
    code: str, message: str, details: dict[str, Any] | None = None
) -> ServerError:
    """Build the typed exception for an error payload's code string."""
    try:
        parsed = ErrorCode(code)
    except ValueError:
        return ServerError(
            f"{message} (unknown error code {code!r})",
            ErrorCode.INTERNAL,
            details,
        )
    return _ERROR_CLASSES[parsed](message, parsed, details)
