"""Drain-with-parked-commit regression tests.

The commit-stability gate parks a commit whose reads-from author is
still in flight (``_commit_waiters``).  The original drain handled that
park dishonestly twice over: it burned the *entire* grace period
polling (a parked commit has no progress source once the queue is
empty — its author's session can no longer submit), and it then failed
the waiter with a plain ``SHUTTING_DOWN`` *before* aborting live
transactions — even though those very aborts would have resolved the
waiter honestly (``ABORTED`` through the cascade, or ``committed`` when
the author's termination unblocks it).

The fixed drain breaks out of the grace loop as soon as only
commit-stability parks remain, aborts non-parked transactions first so
``_after_abort`` can resolve the waiters with their true outcome, and
only backstops a still-undecided commit with an *indeterminate*
``SHUTTING_DOWN``.
"""

from __future__ import annotations

import asyncio
import time

from repro.protocol.scheduler import TransactionManager
from repro.server.protocol import Request
from repro.server.session import CommandDispatcher, SessionState

from .conftest import run, tiny_db


async def _request(dispatcher, session, rid, op, **params):
    outcome = dispatcher.submit(session, Request(rid, op, params))
    return outcome if isinstance(outcome, dict) else await outcome


async def _parked_commit(dispatcher):
    """T2 reads T1's uncommitted write, then commits: parked on T1."""
    s1 = SessionState(1, notify=lambda frame: None)
    s2 = SessionState(2, notify=lambda frame: None)
    t1 = (await _request(dispatcher, s1, 1, "define", updates=["x"]))[
        "txn"
    ]
    await _request(dispatcher, s1, 2, "validate", txn=t1)
    await _request(dispatcher, s1, 3, "write", txn=t1, entity="x", value=7)
    # T2's input predicate admits only T1's uncommitted x = 7 (the
    # initial x is 1), so validation assigns it that version.
    t2 = (
        await _request(
            dispatcher, s2, 4, "define", updates=["y"], input="x >= 7"
        )
    )["txn"]
    await _request(dispatcher, s2, 5, "validate", txn=t2)
    read = await _request(dispatcher, s2, 6, "read", txn=t2, entity="x")
    assert read["value"] == 7  # reads-from edge onto in-flight T1
    commit_future = dispatcher.submit(
        s2, Request(7, "commit", {"txn": t2})
    )
    assert isinstance(commit_future, asyncio.Future)
    # Let the dispatcher run the commit up to the stability park.
    for _ in range(50):
        await asyncio.sleep(0)
        if t2 in dispatcher._commit_waiters:
            break
    assert t2 in dispatcher._commit_waiters
    return t1, t2, commit_future


def test_drain_resolves_parked_commit_honestly_and_fast():
    async def body():
        dispatcher = CommandDispatcher(
            TransactionManager(tiny_db()), request_timeout=30.0
        )
        runner = asyncio.create_task(dispatcher.run())
        t1, t2, commit_future = await _parked_commit(dispatcher)

        started = time.monotonic()
        summary = await dispatcher.drain(grace=5.0)
        elapsed = time.monotonic() - started

        # No full-grace poll: only a commit-stability park remained,
        # which waiting can never resolve.
        assert elapsed < 2.0
        # The waiter got its true outcome, not a dropped future or a
        # misleading plain SHUTTING_DOWN: aborting in-flight T1
        # cascades over T2 (it read T1's expunged version).
        assert commit_future.done()
        response = commit_future.result()
        assert response["ok"] is False
        assert response["error"]["code"] == "ABORTED"
        assert t2 in response["error"]["message"]
        assert t1 in summary["aborted"]
        assert t2 in summary["aborted"]

        await dispatcher.stop()
        await runner

    run(body())


def test_drain_commits_waiter_when_author_terminates_in_queue():
    async def body():
        dispatcher = CommandDispatcher(
            TransactionManager(tiny_db()), request_timeout=30.0
        )
        runner = asyncio.create_task(dispatcher.run())
        t1, t2, commit_future = await _parked_commit(dispatcher)

        # The author's commit is already queued when the drain starts:
        # the grace loop must let it run, and its termination resolves
        # the parked commit with a real ``committed``.
        s1 = SessionState(1, notify=lambda frame: None)
        s1.owned.add(t1)
        author_commit = dispatcher.submit(
            s1, Request(8, "commit", {"txn": t1})
        )
        assert isinstance(author_commit, asyncio.Future)
        summary = await dispatcher.drain(grace=5.0)

        assert (await author_commit)["outcome"] == "committed"
        assert commit_future.done()
        assert commit_future.result()["outcome"] == "committed"
        assert t2 not in summary["aborted"]

        await dispatcher.stop()
        await runner

    run(body())
