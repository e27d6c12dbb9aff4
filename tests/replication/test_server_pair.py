"""Primary + follower TransactionServers wired over real TCP."""

from __future__ import annotations

import asyncio

import pytest

from repro.server import AsyncClient
from repro.server.errors import NotPrimary, StaleRead

from .conftest import replicated_pair, run


async def _commit(client: AsyncClient, entity: str, value: int) -> str:
    txn = await client.define(
        updates=[entity], input_constraint=f"{entity} >= 0"
    )
    await client.validate(txn)
    await client.write(client_txn := txn, entity, value)
    reply = await client.commit(txn)
    assert reply["outcome"] == "committed"
    return client_txn


async def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        result = await predicate()
        if result:
            return result
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class TestReplicatedPair:
    def test_follower_read_converges(self, tmp_path):
        async def scenario():
            async with replicated_pair(tmp_path) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    await _commit(p_client, "x", 42)

                    async def caught_up():
                        reply = await f_client.follower_read()
                        view = reply["view"]
                        return view if view.get("x") == 42 else None

                    reply = await _wait_for(caught_up)
                    assert reply["x"] == 42
                    full = await f_client.follower_read(entity="x")
                    assert full["value"] == 42
                    assert full["role"] == "follower"
                    assert full["applied_lsn"] > 0
                finally:
                    await p_client.close()
                    await f_client.close()

        run(scenario())

    def test_mutations_redirect_to_primary(self, tmp_path):
        async def scenario():
            async with replicated_pair(tmp_path) as (primary, follower):
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    with pytest.raises(NotPrimary) as info:
                        await f_client.define(updates=["x"])
                    details = info.value.details
                    assert details["port"] == primary.repl_port
                finally:
                    await f_client.close()

        run(scenario())

    def test_staleness_bounds_are_enforced(self, tmp_path):
        async def scenario():
            async with replicated_pair(tmp_path) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    await _commit(p_client, "x", 9)

                    async def seeded():
                        try:
                            reply = await f_client.follower_read()
                        except StaleRead:
                            return None
                        return reply if reply["view"].get("x") == 9 else None

                    reply = await _wait_for(seeded)
                    applied = reply["applied_lsn"]
                    # Satisfiable bound: we are exactly at applied.
                    ok = await f_client.follower_read(
                        min_applied_lsn=applied
                    )
                    assert ok["applied_lsn"] >= applied
                    # Unsatisfiable bound: far beyond the horizon.
                    with pytest.raises(StaleRead):
                        await f_client.follower_read(
                            min_applied_lsn=applied + 10_000
                        )
                finally:
                    await p_client.close()
                    await f_client.close()

        run(scenario())

    def test_repl_status_both_sides(self, tmp_path):
        async def scenario():
            async with replicated_pair(tmp_path) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    async def follower_registered():
                        status = await p_client.repl_status()
                        return status if status["followers"] else None

                    p_status = await _wait_for(follower_registered)
                    assert p_status["role"] == "primary"
                    f_status = await f_client.repl_status()
                    assert f_status["role"] == "follower"
                    assert (
                        f_status["primary"]["port"] == primary.repl_port
                    )
                finally:
                    await p_client.close()
                    await f_client.close()

        run(scenario())

    def test_sync_commit_waits_for_follower_ack(self, tmp_path):
        async def scenario():
            async with replicated_pair(
                tmp_path, sync_replicas=1
            ) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    await _commit(p_client, "x", 17)
                    # The reply only arrived because the follower acked:
                    # its fsynced state must already hold the write.
                    reply = await f_client.follower_read(entity="x")
                    assert reply["value"] == 17
                    status = await p_client.repl_status()
                    assert status["replicated_lsn"] > 0
                finally:
                    await p_client.close()
                    await f_client.close()

        run(scenario())

    def test_healthz_reports_role_and_lag(self, tmp_path):
        async def scenario():
            async with replicated_pair(
                tmp_path, metrics_port=0
            ) as (primary, follower):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", primary.metrics_port
                )
                writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await reader.read(-1)
                writer.close()
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"200 OK" in head
                import json

                payload = json.loads(body)
                assert payload["role"] == "primary"
                assert "durable_lsn" in payload

        run(scenario())


class TestFailover:
    def test_promote_preserves_acked_commits(self, tmp_path):
        async def scenario():
            async with replicated_pair(
                tmp_path, sync_replicas=1
            ) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    acked = []
                    for value in (5, 6, 7):
                        acked.append(
                            await _commit(p_client, "x", value)
                        )
                    # Hard-stop the primary: no graceful drain frame
                    # reaches anyone, mimicking a SIGKILL.
                    await p_client.close()
                    await primary.shutdown()
                    report = await f_client.promote()
                    assert report["role"] == "primary"
                    recovery = report["recovery"]
                    assert recovery["verified"] is True
                    for txn in acked:
                        assert txn in report["committed"]
                    # The promoted node now accepts writes.
                    await _commit(f_client, "y", 99)
                    # The committed root view holds every acked write
                    # (a fresh *leaf* may legally read older versions
                    # under the paper's version-function semantics, so
                    # assert the root-level committed state instead).
                    view = (await f_client.follower_read())["view"]
                    assert view == {"x": 7, "y": 99}
                    # The promoted manager is the one the group-commit
                    # loop now drives (and shutdown will close).
                    wal = follower.manager.wal

                    async def flushed():
                        return wal.durable_lsn == wal.last_lsn

                    await _wait_for(flushed, timeout=2.0)
                finally:
                    await f_client.close()
            assert wal.closed

        run(scenario())

    def test_promote_takes_over_listen_port(self, tmp_path):
        async def scenario():
            async with replicated_pair(tmp_path) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                f_client = await AsyncClient.connect(*follower.address)
                try:
                    await _commit(p_client, "x", 3)

                    async def caught_up():
                        status = await f_client.repl_status()
                        return status["applied_lsn"] > 0 or None

                    await _wait_for(caught_up)
                    old_port = primary.port
                    await p_client.close()
                    await primary.shutdown()
                    report = await f_client.promote(
                        listen_port=old_port
                    )
                    assert report["listen_port"] == old_port

                    async def port_taken_over():
                        try:
                            client = await AsyncClient.connect(
                                "127.0.0.1", old_port
                            )
                        except OSError:
                            return None
                        return client

                    moved = await _wait_for(port_taken_over)
                    status = await moved.repl_status()
                    assert status["role"] == "primary"
                    await moved.close()
                finally:
                    await f_client.close()

        run(scenario())

    def test_promote_refused_on_primary(self, tmp_path):
        async def scenario():
            async with replicated_pair(tmp_path) as (primary, follower):
                p_client = await AsyncClient.connect(*primary.address)
                try:
                    from repro.server.errors import ServerError

                    with pytest.raises(ServerError):
                        await p_client.promote()
                finally:
                    await p_client.close()

        run(scenario())
