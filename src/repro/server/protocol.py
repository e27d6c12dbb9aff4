"""The JSON-lines wire protocol: framing, requests, responses.

One frame = one JSON object, UTF-8 encoded, terminated by ``\\n``, at
most :data:`MAX_FRAME_BYTES` long.  Three frame shapes flow on a
connection:

* **request** (client → server)::

      {"id": 7, "op": "read", "txn": "t.0.3", "entity": "x"}

  ``id`` is a client-chosen non-negative integer echoed in the
  response; ids may be pipelined (multiple requests in flight) and
  responses may arrive out of order — blocked steps park server-side
  and answer when granted.

* **response** (server → client)::

      {"id": 7, "ok": true, "value": 4}
      {"id": 7, "ok": false, "error": {"code": "BUSY", "message": …}}

* **event** (server → client, unsolicited; ``id`` is absent)::

      {"event": "abort", "txn": "t.0.3", "reason": "…"}
      {"event": "shutdown"}

  Events notify a session about transactions it owns that were
  terminated from outside — most importantly cascading aborts caused
  by another session's abort or failed re-validation.

The framing layer is deliberately dumb: it validates shape (dict, id,
op types) and size only.  The *surface* — which operations exist, their
parameters, who may serve them and how a sharded front routes them — is
the one table :data:`OPS`, read by the dispatcher
(:mod:`repro.server.session`), the router (:mod:`repro.server.router`)
and both clients; :func:`bind` checks a request against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.predicates import parse_cached
from ..errors import (
    PredicateParseError,
    ProtocolError,
    ReproError,
    TransactionAborted,
)
from .errors import (
    ErrorCode,
    InvalidArgument,
    MalformedFrame,
    ServerError,
    UnknownOperation,
    error_payload,
)

MAX_FRAME_BYTES = 64 * 1024
"""Upper bound on one encoded frame, newline included."""

def encode_frame(payload: dict[str, Any]) -> bytes:
    """Serialize one frame (compact JSON + newline)."""
    line = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise MalformedFrame(
            f"frame of {len(data)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return data


def decode_frame(line: bytes) -> dict[str, Any]:
    """Parse one received line into a frame dict.

    Raises :class:`MalformedFrame` on oversized input, bad UTF-8, bad
    JSON, or a non-object top level.
    """
    if len(line) > MAX_FRAME_BYTES:
        raise MalformedFrame(
            f"frame of {len(line)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as error:
        raise MalformedFrame(f"frame is not UTF-8: {error}") from error
    if not text.strip():
        raise MalformedFrame("empty frame")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise MalformedFrame(f"frame is not JSON: {error}") from error
    if not isinstance(payload, dict):
        raise MalformedFrame(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class Request:
    """A validated request frame: id, operation, and its parameters."""

    request_id: int
    op: str
    params: dict[str, Any] = field(default_factory=dict)


def parse_request(frame: dict[str, Any]) -> Request:
    """Validate a decoded frame as a request.

    Checks the ``id`` and ``op`` fields only; unknown operations are
    reported by the dispatcher (which can echo the id) rather than
    here, so a typo'd op never kills the connection.
    """
    if "id" not in frame:
        raise MalformedFrame("request has no 'id'")
    request_id = frame["id"]
    if not _is_int(request_id):
        raise MalformedFrame(
            f"request id must be an integer, got {request_id!r}"
        )
    if request_id < 0:
        raise MalformedFrame(f"request id must be >= 0, got {request_id}")
    op = frame.get("op")
    if not isinstance(op, str) or not op:
        raise MalformedFrame("request has no 'op' string")
    params = {
        key: value
        for key, value in frame.items()
        if key not in ("id", "op")
    }
    return Request(request_id, op, params)


# -- the op table ------------------------------------------------------------

REQUIRED = object()
"""Default of a parameter the request must carry."""


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: Parameter kind -> (check, "must be ..." wording).  ``predicate`` is
#: a ``name`` that :func:`bind` additionally parses.
_KINDS: dict[str, tuple[Callable[[Any], bool], str]] = {
    "name": (lambda v: isinstance(v, str) and bool(v), "a non-empty string"),
    "text": (lambda v: isinstance(v, str), "a string"),
    "int": (_is_int, "an integer"),
    "names": (
        lambda v: isinstance(v, list) and all(isinstance(i, str) for i in v),
        "a list of strings",
    ),
    "map": (lambda v: isinstance(v, dict), "a shard->branch map"),
}
_KINDS["predicate"] = _KINDS["name"]


@dataclass(frozen=True)
class Param:
    """One request parameter: wire name, kind, and what an absent one
    binds to (``None`` also lets an explicit ``null`` through)."""

    name: str
    kind: str = "name"
    default: Any = REQUIRED


#: How a sharded front routes an op.  The three transaction-scoped
#: routes all follow the ``txn`` name's root to its shard; they differ
#: in what a *cross-shard* transaction does with the op.
ROUTE_FRONT = "front"  # answered by the front itself
ROUTE_FOOTPRINT = "footprint"  # define: by the declared footprint
ROUTE_ENTITY = "entity"  # the branch on the entity's shard
ROUTE_BRANCHES = "branches"  # fanned out over every branch
ROUTE_ROOT = "root"  # single-shard transactions only
ROUTE_REFUSED = "refused"  # not served by a sharded front


@dataclass(frozen=True)
class Op:
    """One row of the service surface."""

    params: tuple[Param, ...] = ()
    #: Mutates (or reads uncommitted) manager state: primary only.
    primary: bool = False
    route: str = ROUTE_FRONT

    @property
    def txn_scoped(self) -> bool:
        """Does the op drive one transaction its session must own?"""
        return self.route in (ROUTE_ENTITY, ROUTE_BRANCHES, ROUTE_ROOT)


_TXN = Param("txn")
_ENTITY = Param("entity")
_VALUE = Param("value", "int")

OPS: dict[str, Op] = {
    "hello": Op(),
    "ping": Op(),
    "stats": Op(),
    "define": Op(
        (
            Param("updates", "names", ()),
            Param("input", "predicate", "true"),
            Param("output", "predicate", "true"),
            Param("parent", "text", None),
            Param("predecessors", "names", ()),
        ),
        primary=True,
        route=ROUTE_FOOTPRINT,
    ),
    "validate": Op((_TXN,), True, ROUTE_BRANCHES),
    "read": Op((_TXN, _ENTITY), True, ROUTE_ENTITY),
    "begin_write": Op((_TXN, _ENTITY), True, ROUTE_ENTITY),
    "end_write": Op((_TXN, _ENTITY, _VALUE), True, ROUTE_ENTITY),
    "write": Op((_TXN, _ENTITY, _VALUE), True, ROUTE_ENTITY),
    "commit": Op((_TXN,), True, ROUTE_BRANCHES),
    "prepare": Op(
        (
            _TXN,
            Param("gid"),
            Param("participants", "map"),
            Param("coordinator", "int"),
        ),
        True,
        ROUTE_ROOT,
    ),
    "abort": Op((_TXN, Param("reason", "text", None)), True, ROUTE_BRANCHES),
    "view": Op((_TXN,), True, ROUTE_BRANCHES),
    "follower_read": Op(
        (
            Param("entity", "name", None),
            Param("max_lag_lsn", "int", None),
            Param("min_applied_lsn", "int", None),
        ),
        route=ROUTE_REFUSED,
    ),
    "repl_status": Op(route=ROUTE_REFUSED),
    "promote": Op((Param("listen_port", "int", None),), route=ROUTE_REFUSED),
}
"""The service surface (documented row for row in docs/server.md)."""


def bind(op: str, params: dict[str, Any]) -> dict[str, Any]:
    """Check one request against :data:`OPS`; return its typed values.

    Every declared parameter comes back — defaults filled in, predicate
    texts parsed — keyed by name; undeclared keys are ignored.  Raises
    ``UNKNOWN_OP`` for an op outside the table and ``INVALID_ARG`` for a
    missing, mistyped or unparseable parameter.
    """
    spec = OPS.get(op)
    if spec is None:
        raise UnknownOperation(f"unknown operation {op!r}")
    bound: dict[str, Any] = {}
    for param in spec.params:
        key = param.name
        value = params.get(key, param.default)
        if value is REQUIRED:
            raise InvalidArgument(f"missing required parameter {key!r}")
        check, wording = _KINDS[param.kind]
        if value is not param.default and not check(value):
            message = f"parameter {key!r} must be {wording}"
            if param.kind == "int" and param.default is REQUIRED:
                # Wire compatibility: required integers echo the value.
                message += f", got {value!r}"
            raise InvalidArgument(message)
        if param.kind == "predicate":
            try:
                value = parse_cached(value)
            except PredicateParseError as error:
                raise InvalidArgument(
                    f"unparseable {key} predicate {value!r}: {error}"
                ) from error
        bound[key] = value
    return bound


def ok_response(request_id: int, **fields: Any) -> dict[str, Any]:
    """A success response frame."""
    return {"id": request_id, "ok": True, **fields}


def error_response(
    request_id: int | None,
    code: ErrorCode,
    message: str,
    **details: Any,
) -> dict[str, Any]:
    """A failure response frame.

    ``request_id`` is ``None`` when the request's id could not be
    recovered (undecodable frame).
    """
    return {
        "id": request_id,
        "ok": False,
        "error": error_payload(code, message, **details),
    }


def error_reply(request_id: int, error: Exception) -> dict[str, Any]:
    """The failure response for whatever serving a request raised —
    the fault barrier of the dispatcher and the router alike."""
    if isinstance(error, ServerError):
        return error_response(
            request_id, error.code, str(error), **error.details
        )
    for kind, code in (
        (TransactionAborted, ErrorCode.ABORTED),
        (ProtocolError, ErrorCode.PROTOCOL),
        (ReproError, ErrorCode.INVALID_ARG),
    ):
        if isinstance(error, kind):
            return error_response(request_id, code, str(error))
    return error_response(
        request_id, ErrorCode.INTERNAL, f"{type(error).__name__}: {error}"
    )


def event_frame(event: str, **fields: Any) -> dict[str, Any]:
    """An unsolicited server → client notification frame."""
    return {"event": event, **fields}


def is_event(frame: dict[str, Any]) -> bool:
    """Is a received frame an unsolicited event (vs. a response)?"""
    return "event" in frame and "id" not in frame
