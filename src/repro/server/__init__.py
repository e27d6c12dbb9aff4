"""repro.server — a concurrent transaction service over the §5 manager.

The package turns the single-threaded Korth–Speegle
:class:`~repro.protocol.scheduler.TransactionManager` into a network
service without changing its concurrency model: every connection maps
to a session, every request becomes a command on **one** bounded queue,
and **one** dispatcher task replays commands against the manager.
Blocked protocol steps (lock waits, commits waiting on uncommitted
predecessors) park server-side and answer when granted, aborted, or
timed out.

Layering (each module documents its own contract):

* :mod:`repro.server.protocol` — JSON-lines framing, request/response
  shapes;
* :mod:`repro.server.errors` — typed error codes and the client-side
  exceptions they map to;
* :mod:`repro.server.session` — the command dispatcher (the only code
  that touches the manager) and its parking/timeout/notification
  machinery;
* :mod:`repro.server.router` — entity-hash shard routing and the
  cross-shard two-phase commit coordinator (``--shards N``);
* :mod:`repro.server.server` — asyncio TCP transport and lifecycle;
* :mod:`repro.server.client` — sync + asyncio client libraries.

``build_workload`` is re-exported from :mod:`repro.workload` for
``benchmarks/suite`` until the suite imports it from there.
"""

from ..workload import build_workload
from .client import AsyncClient, Client
from .errors import (
    WIRE_FAULT_CODES,
    BusyError,
    ConflictingRequest,
    ErrorCode,
    InvalidArgument,
    MalformedFrame,
    NotOwner,
    RemoteAborted,
    RemoteProtocolError,
    RequestTimeout,
    ServerError,
    ShuttingDown,
    UnknownOperation,
    UnknownTransaction,
)
from .metrics_http import MetricsHTTPServer
from .protocol import MAX_FRAME_BYTES
from .router import ShardRouter, affinity_key, shard_of
from .server import ServerConfig, ServerThread, TransactionServer, parse_hostport
from .session import CommandDispatcher, SessionState

__all__ = [
    "AsyncClient",
    "BusyError",
    "Client",
    "CommandDispatcher",
    "ConflictingRequest",
    "ErrorCode",
    "InvalidArgument",
    "MalformedFrame",
    "MAX_FRAME_BYTES",
    "MetricsHTTPServer",
    "NotOwner",
    "RemoteAborted",
    "RemoteProtocolError",
    "RequestTimeout",
    "ServerConfig",
    "ServerError",
    "ServerThread",
    "SessionState",
    "ShardRouter",
    "ShuttingDown",
    "TransactionServer",
    "UnknownOperation",
    "UnknownTransaction",
    "WIRE_FAULT_CODES",
    "affinity_key",
    "build_workload",
    "parse_hostport",
    "shard_of",
]
