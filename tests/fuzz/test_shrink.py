"""Shrinking: unit behavior plus the injected-regression end-to-end.

The E2E test is the fuzzer's acceptance check: break the server on
purpose (acknowledge commits without committing), run a small corpus,
and require that the bug is caught, shrunk to a handful of operations,
written as a reproducer, and replayable.
"""

from __future__ import annotations

from repro.fuzz import (
    execute_plan,
    generate_plan,
    replay_file,
    run_corpus,
    shrink_plan,
)
from repro.server.protocol import ok_response
from repro.server.session import CommandDispatcher


def test_shrink_preserves_predicate_and_reduces():
    plan = generate_plan(3)

    def has_commit(candidate):
        return any(
            op[0] == "commit"
            for client in candidate.clients
            for txn in client.txns
            for op in txn.ops
        )

    assert has_commit(plan)
    small, runs = shrink_plan(plan, has_commit)
    assert has_commit(small)
    assert small.op_count < plan.op_count
    assert runs > 0
    # 1-minimal: exactly one client, one txn, whose only op commits.
    assert len(small.clients) == 1
    assert len(small.clients[0].txns) == 1
    assert [op[0] for op in small.clients[0].txns[0].ops] == ["commit"]


def test_shrink_respects_run_budget():
    plan = generate_plan(3)
    calls = []

    def never(candidate):
        calls.append(1)
        return False

    small, runs = shrink_plan(plan, never, max_runs=5)
    assert runs == 5 and len(calls) == 5
    assert small.canonical_json() == plan.canonical_json()


def _ack_without_commit(self, command, txn):
    """The injected regression: a commit acked but never performed."""
    gated = self._commit_gate(command, txn)
    if gated is not None:
        return gated
    self._count("server.txns.committed")
    return ok_response(command.request_id, outcome="committed")


def test_injected_regression_caught_shrunk_and_replayable(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(
        CommandDispatcher, "_op_commit", _ack_without_commit
    )
    out_dir = tmp_path / "fuzz-failures"
    result = run_corpus(1, 10, out_dir=out_dir, shrink=True)
    assert result.exit_code == 1
    assert result.failures, "lost-commit bug not caught in 10 seeds"
    for failure in result.failures:
        assert "committed_prefix" in failure.failed_oracles
        assert failure.op_count_after <= 6, (
            f"seed {failure.seed} only shrank to "
            f"{failure.op_count_after} ops"
        )
        assert failure.op_count_after <= failure.op_count_before

    # While the bug is still in place the reproducer must fire...
    reproducer = result.failures[0].reproducer
    rerun, matches = replay_file(reproducer)
    assert matches and not rerun.ok

    # ...and once the bug is fixed (patch undone) it must go quiet.
    monkeypatch.undo()
    rerun, matches = replay_file(reproducer)
    assert not matches
    assert rerun.ok, rerun.failed_oracles


def test_shrunk_reproducer_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setattr(
        CommandDispatcher, "_op_commit", _ack_without_commit
    )
    result = run_corpus(2, 2, out_dir=None, shrink=True)
    assert result.failures
    seed = result.failures[0].seed
    plan = generate_plan(seed)
    first = execute_plan(plan).failed_oracles
    second = execute_plan(plan).failed_oracles
    assert first == second
