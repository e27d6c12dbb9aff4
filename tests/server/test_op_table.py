"""The op table is the one definition of the service surface.

Conformance: the dispatcher, the router and both clients each cover
exactly the ops of :data:`repro.server.protocol.OPS` with exactly its
parameters, and a malformed request is refused with the same error on
one shard and on two.  Parity: the blocking and the asyncio client are
the same surface over two transports.
"""

from __future__ import annotations

import asyncio
import inspect

import pytest

from repro.server import (
    AsyncClient,
    Client,
    ServerConfig,
    ServerError,
    ServerThread,
)
from repro.server.protocol import (
    OPS,
    REQUIRED,
    ROUTE_BRANCHES,
    ROUTE_ENTITY,
    ROUTE_FOOTPRINT,
    ROUTE_FRONT,
    ROUTE_REFUSED,
    ROUTE_ROOT,
)
from repro.server.router import ShardRouter
from repro.server.session import CommandDispatcher

from .conftest import run, serving, tiny_db

TRANSPORT = {"connect", "request", "close", "poll_events"}


def _methods(cls: type, prefix: str) -> dict[str, list[str]]:
    """``{op: parameter names}`` of ``cls``'s ``prefix``-named methods."""
    return {
        name[len(prefix):]: list(inspect.signature(member).parameters)
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if name.startswith(prefix)
    }


def _names(op: str) -> list[str]:
    return [param.name for param in OPS[op].params]


def test_dispatcher_has_exactly_one_handler_per_op():
    handlers = _methods(CommandDispatcher, "_op_")
    assert set(handlers) == set(OPS)
    for op, parameters in handlers.items():
        assert parameters == ["self", "command", *_names(op)], op


def test_router_has_exactly_one_rule_per_op():
    fronted = _methods(ShardRouter, "_op_")
    fanned = _methods(ShardRouter, "_cross_")
    by_route: dict[str, set[str]] = {}
    for op, spec in OPS.items():
        by_route.setdefault(spec.route, set()).add(op)
    assert set(by_route) == {
        ROUTE_FRONT,
        ROUTE_FOOTPRINT,
        ROUTE_ENTITY,
        ROUTE_BRANCHES,
        ROUTE_ROOT,
        ROUTE_REFUSED,
    }
    assert set(fronted) == by_route[ROUTE_FRONT] | by_route[ROUTE_FOOTPRINT]
    assert set(fanned) == by_route[ROUTE_BRANCHES]
    for op, parameters in fronted.items():
        assert parameters == ["self", "session", "request", *_names(op)]
    for op, parameters in fanned.items():
        assert parameters == ["self", "rid", "ct", *_names(op)[1:]]
    for op, spec in OPS.items():
        # Transaction-scoped ops name their transaction first; an
        # entity-routed one names the entity too.
        assert spec.txn_scoped == (_names(op)[:1] == ["txn"]), op
        if spec.route == ROUTE_ENTITY:
            assert "entity" in _names(op), op
        if spec.route == ROUTE_REFUSED:
            assert not spec.primary, op  # replication ops, any role


@pytest.mark.parametrize("client", [Client, AsyncClient])
def test_clients_have_exactly_one_method_per_op(client):
    public = {
        name
        for name, member in inspect.getmembers(client)
        if not name.startswith("_") and callable(member)
    }
    assert public - TRANSPORT == set(OPS)
    assert TRANSPORT - public <= {"poll_events"}  # the blocking one's


# -- malformed requests: one shard and two agree -----------------------------

MISTYPED = {
    "name": 5,
    "text": 5,
    "int": "7",
    "names": "ab",
    "map": [],
    "predicate": 5,
}
WELL_TYPED = {"gid": "g", "participants": {}, "coordinator": 0, "value": 3}


async def _refusals(shards: int) -> dict[tuple, tuple]:
    """``{(op, param, fault): (code, message)}`` for every declared
    parameter omitted (if required) and mistyped, one fault a request,
    each on a fresh validated transaction the session owns."""
    refusals: dict[tuple, tuple] = {}
    async with serving(shards=shards) as server:
        client = await AsyncClient.connect("127.0.0.1", server.port)
        for op, spec in OPS.items():
            if spec.route == ROUTE_REFUSED:
                continue  # a sharded front refuses these by design
            for param in spec.params:
                txn = await client.define(updates=["x"])
                await client.validate(txn)
                good = {
                    p.name: WELL_TYPED.get(p.name, "x")
                    for p in spec.params
                    if p.default is REQUIRED
                }
                if "txn" in good:
                    good["txn"] = txn
                faults = {"mistyped": {param.name: MISTYPED[param.kind]}}
                if param.default is REQUIRED:
                    faults["omitted"] = None
                for fault, patch in faults.items():
                    params = {**good, **(patch or {})}
                    if patch is None:
                        del params[param.name]
                    with pytest.raises(ServerError) as caught:
                        await client.request(op, **params)
                    refusals[op, param.name, fault] = (
                        caught.value.code.value,
                        str(caught.value).replace(txn, "<txn>"),
                    )
        await client.close()
    return refusals


def test_every_malformed_parameter_is_refused_alike_on_one_and_two_shards():
    one, two = run(_refusals(1)), run(_refusals(2))
    assert one == two
    assert {code for code, _ in one.values()} == {"INVALID_ARG"}
    for (op, param, fault), (_, message) in one.items():
        assert repr(param) in message, (op, param, fault, message)
        assert ("missing" in message) == (fault == "omitted")
    declared = sum(
        1 + (param.default is REQUIRED)
        for spec in OPS.values()
        if spec.route != ROUTE_REFUSED
        for param in spec.params
    )
    assert len(one) == declared


@pytest.mark.parametrize("shards", [1, 2])
class TestShardedFrontAnswersLikeTheDispatcher:
    """Three replies a ``--shards 2`` server used to get wrong."""

    def _refusal(self, shards, op, **params):
        async def body():
            async with serving(shards=shards) as server:
                client = await AsyncClient.connect("127.0.0.1", server.port)
                with pytest.raises(ServerError) as caught:
                    await client.request(op, **params)
                await client.close()
                return caught.value.code.value, str(caught.value)

        return run(body())

    def test_unknown_op(self, shards):
        assert self._refusal(shards, "bogus") == (
            "UNKNOWN_OP",
            "unknown operation 'bogus'",
        )

    def test_mistyped_txn(self, shards):
        assert self._refusal(shards, "read", txn=5, entity="x") == (
            "INVALID_ARG",
            "parameter 'txn' must be a non-empty string",
        )

    def test_define_with_a_string_for_predecessors(self, shards):
        assert self._refusal(shards, "define", predecessors="ab") == (
            "INVALID_ARG",
            "parameter 'predecessors' must be a list of strings",
        )

    def test_replication_ops_are_refused_by_a_sharded_front_only(
        self, shards
    ):
        code, message = self._refusal(shards, "promote")
        assert code == "INVALID_ARG"
        assert message == (
            "promote: this node is not a follower"
            if shards == 1
            else "'promote' is not available on a sharded server "
            "(replication and sharding are mutually exclusive)"
        )


# -- one surface, two transports ---------------------------------------------

#: (remember-as, method, arguments given the names remembered so far).
SESSION = [
    ("t", "define", lambda n: dict(updates=["x"], input_constraint="x >= 0")),
    (None, "validate", lambda n: dict(txn=n["t"])),
    (None, "read", lambda n: dict(txn=n["t"], entity="x")),
    (None, "write", lambda n: dict(txn=n["t"], entity="x", value=9)),
    (None, "view", lambda n: dict(txn=n["t"])),
    (None, "commit", lambda n: dict(txn=n["t"])),
    ("u", "define", lambda n: dict(updates=["y"], output_condition="y >= 50")),
    (None, "validate", lambda n: dict(txn=n["u"])),
    (None, "commit", lambda n: dict(txn=n["u"])),  # outcome: failed
    (None, "read", lambda n: dict(txn=n["u"], entity="nope")),  # raises
    (None, "abort", lambda n: dict(txn=n["u"], reason="unmet")),
    (None, "follower_read", lambda n: dict(entity="x")),
    (None, "follower_read", lambda n: dict(read_your_writes=False)),
    (None, "repl_status", lambda n: dict()),
    (None, "ping", lambda n: dict()),
]


def _outcome(call):
    try:
        return call()
    except ServerError as error:
        return type(error).__name__, str(error)


def test_sync_and_async_clients_are_one_surface(tmp_path):
    def serve(name):
        return ServerThread(
            tiny_db, ServerConfig(wal_dir=str(tmp_path / name))
        )

    with serve("sync") as handle:
        with Client.connect("127.0.0.1", handle.port) as client:
            names: dict[str, str] = {}
            sync_replies = []
            for remember, method, arguments in SESSION:
                call = getattr(client, method)
                reply = _outcome(lambda: call(**arguments(names)))
                if remember:
                    names[remember] = reply
                sync_replies.append(reply)
            sync_token = client.session_lsn

    async def body(port):
        client = await AsyncClient.connect("127.0.0.1", port)
        names: dict[str, str] = {}
        replies = []
        for remember, method, arguments in SESSION:
            try:
                reply = await getattr(client, method)(**arguments(names))
            except ServerError as error:
                reply = type(error).__name__, str(error)
            if remember:
                names[remember] = reply
            replies.append(reply)
        await client.close()
        return replies, client.session_lsn

    with serve("async") as handle:
        async_replies, async_token = asyncio.run(body(handle.port))

    assert sync_replies == async_replies
    assert sync_token == async_token > 0
    assert sync_replies[5]["commit_lsn"] == sync_token
    assert sync_replies[8]["outcome"] == "failed"
    assert sync_replies[9][0] == "RemoteProtocolError"
    assert sync_replies[11]["value"] == 9
