"""The shared harness wrapper: resource lifetime and the deadlock path."""

from __future__ import annotations

import asyncio
import os
from dataclasses import replace

import pytest

from repro.errors import ReproError
from repro.fuzz import execute_plan, generate_plan
from repro.fuzz.harness import virtual_run


def test_rejected_plan_acquires_nothing(scratch, no_unclosed_loops):
    # Sharding and replication are mutually exclusive; a hand-edited
    # reproducer can still ask for both.
    plan = replace(generate_plan(1), shards=2, replicas=1, durable=True)
    with no_unclosed_loops():
        with pytest.raises(ReproError, match="replicas must be 0"):
            execute_plan(plan)
    assert list(scratch.iterdir()) == []


def test_parked_coroutine_is_a_deadlock_verdict(scratch):
    tasks: list[asyncio.Task] = []

    async def parked():
        await asyncio.get_running_loop().create_future()

    async def main():
        tasks.append(asyncio.ensure_future(parked()))
        await parked()

    with virtual_run(None, prefix="repro-test-") as run:
        base = run.base
        assert base.parent == scratch and base.is_dir()
        run.run(main())
        assert run.deadlock is not None and "stalled" in run.deadlock
        assert tasks and all(task.cancelled() for task in tasks)
        assert not [
            task
            for task in asyncio.all_tasks(run.loop)
            if not task.done()
        ]
    assert not base.exists()
    assert run.loop.is_closed()


def test_harness_exception_still_unwinds(scratch):
    tasks: list[asyncio.Task] = []

    async def parked():
        await asyncio.get_running_loop().create_future()

    async def main():
        tasks.append(asyncio.ensure_future(parked()))
        await asyncio.sleep(0)
        raise RuntimeError("harness bug")

    with pytest.raises(RuntimeError, match="harness bug"):
        with virtual_run(None, prefix="repro-test-") as run:
            run.run(main())
    assert all(task.cancelled() for task in tasks)
    assert run.loop.is_closed()
    assert list(scratch.iterdir()) == []


def _open_files_under(root) -> list[str]:
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(str(root)):
            held.append(target)
    return held


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_lost_reply_is_reported_as_a_deadlock(
    tmp_path, lose_first_commit_reply
):
    plan = generate_plan(
        3, durable=True, crash=False, replicas=0, shards=1
    )
    result = execute_plan(plan, workdir=tmp_path)
    assert lose_first_commit_reply, "the plan never committed"
    report = result.report
    assert report["deadlock"] and "stalled" in report["deadlock"]
    assert not report["oracles"]["no_deadlock"]["ok"]
    assert not report["oracles"]["replies_complete"]["ok"]
    assert "no_deadlock" in result.failed_oracles
    # shutdown() never ran, yet the WAL fd is released and the WAL
    # still went through recover --verify.
    assert _open_files_under(tmp_path) == []
    (node,) = result.evidence.nodes
    assert node.manager is None
    assert node.recovery is not None and node.recovery.verified
    assert node.records
    assert report["recovered_committed"] is not None
    assert report["oracles"]["recovery_verified"]["ok"]
