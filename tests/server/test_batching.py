"""The dispatcher's batched drain loop (live-path fast lane).

One blocking ``get`` then opportunistic ``get_nowait`` up to
:data:`~repro.server.session.BATCH_SIZE` — FIFO order preserved, every
queued command still served, and the ``server.batch.size`` histogram
records what the loop actually drained.
"""

from __future__ import annotations

import asyncio

from repro.obs.metrics import MetricsRegistry
from repro.protocol.scheduler import TransactionManager
from repro.server import session as session_module
from repro.server.protocol import Request
from repro.server.session import CommandDispatcher, SessionState

from .conftest import run, serving, tiny_db


def _session() -> SessionState:
    return SessionState(session_id=1, notify=lambda frame: None)


async def _drive(count: int) -> tuple[list, MetricsRegistry]:
    """Queue ``count`` defines before the loop starts, then drain."""
    registry = MetricsRegistry()
    dispatcher = CommandDispatcher(
        TransactionManager(tiny_db()), registry=registry
    )
    session = _session()
    futures = []
    for request_id in range(1, count + 1):
        outcome = dispatcher.submit(
            session,
            Request(
                request_id,
                "define",
                {"updates": ["x"], "input_constraint": "x >= 0"},
            ),
        )
        assert not isinstance(outcome, dict), outcome
        futures.append(outcome)
    runner = asyncio.create_task(dispatcher.run())
    responses = await asyncio.gather(*futures)
    await dispatcher.stop()
    await runner
    return responses, registry


class TestBatchedDrain:
    def test_queued_burst_is_one_batch(self):
        responses, registry = run(_drive(count=5))
        assert all(r["ok"] for r in responses)
        sizes = registry.histogram("server.batch.size").values
        assert sizes and max(sizes) == 5

    def test_fifo_order_within_a_batch(self):
        responses, _ = run(_drive(count=6))
        names = [r["txn"] for r in responses]
        # Child naming is allocation-ordered, so FIFO dispatch means
        # the n-th submitted define receives the n-th child name.
        assert names == sorted(names, key=lambda n: int(n.rsplit(".", 1)[1]))

    def test_batch_cap_splits_bursts(self, monkeypatch):
        monkeypatch.setattr(session_module, "BATCH_SIZE", 2)
        responses, registry = run(_drive(count=5))
        assert all(r["ok"] for r in responses)
        sizes = registry.histogram("server.batch.size").values
        assert max(sizes) <= 2 and sum(sizes) == 5


class TestBatchedServerEndToEnd:
    def test_server_round_trip_with_tiny_batches(self, monkeypatch):
        # The whole lifecycle still works when every batch is size 1.
        from repro.server import AsyncClient

        monkeypatch.setattr(session_module, "BATCH_SIZE", 1)

        async def body():
            async with serving() as server:
                client = await AsyncClient.connect(
                    "127.0.0.1", server.port
                )
                txn = await client.define(
                    updates=["x"], input_constraint="x >= 0"
                )
                await client.validate(txn)
                value = await client.read(txn, "x")
                await client.write(txn, "x", value + 1)
                outcome = await client.commit(txn)
                await client.close()
                return outcome

        assert run(body())["outcome"] == "committed"
