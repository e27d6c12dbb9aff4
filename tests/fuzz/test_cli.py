"""The ``repro fuzz`` command: exit codes and reproducer replay."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cli import main
from repro.fuzz import generate_plan, save_reproducer


def test_fuzz_clean_corpus_exits_zero(tmp_path, capsys):
    report = tmp_path / "corpus.json"
    code = main(
        [
            "fuzz",
            "--seed", "1",
            "--runs", "5",
            "--out", "",
            "--report", str(report),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "5/5 passed" in out
    payload = json.loads(report.read_text())
    assert payload["exit_code"] == 0
    assert payload["passed"] == 5


def test_fuzz_replay_missing_file_is_harness_error(capsys):
    code = main(["fuzz", "replay", "/nonexistent/repro.json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fuzz_replay_unreproduced_failure_exits_one(tmp_path, capsys):
    # A reproducer claiming a failure the fixed server does not have.
    path = tmp_path / "repro.json"
    save_reproducer(path, generate_plan(1), ("committed_prefix",))
    code = main(["fuzz", "replay", str(path)])
    assert code == 1
    assert "did NOT reproduce" in capsys.readouterr().out


def test_fuzz_replay_clean_expectation_exits_zero(tmp_path, capsys):
    # No expected failure recorded: replay succeeds iff the run is ok.
    path = tmp_path / "repro.json"
    save_reproducer(path, generate_plan(1), ())
    code = main(["fuzz", "replay", str(path)])
    assert code == 0


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"shards": 2, "replicas": 1}, "replicas must be 0"),
        ({"durable": False, "crash_point": "wal.mid_record"}, "crash point"),
        ({"durable": False, "replicas": 1}, "replicas need a durable"),
        ({"crash_point": "wal.nope"}, "unknown crash point"),
        ({"replicas": 1, "sync_replicas": 2}, "exceeds replicas 1"),
    ],
    ids=[
        "sharded-replicated",
        "in-memory-crash-point",
        "in-memory-replicas",
        "unknown-crash-point",
        "sync-beyond-replicas",
    ],
)
def test_fuzz_replay_refuses_an_invalid_plan(
    tmp_path, capsys, overrides, message
):
    # A hand-edited reproducer: the generator never emits these.
    path = tmp_path / "repro.json"
    plan = replace(generate_plan(1, durable=True, shards=1), **overrides)
    save_reproducer(path, plan, ())
    code = main(["fuzz", "replay", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_fuzz_replay_refuses_a_plan_without_a_seed(tmp_path, capsys):
    path = tmp_path / "repro.json"
    save_reproducer(path, generate_plan(1), ())
    payload = json.loads(path.read_text())
    del payload["plan"]["seed"]
    path.write_text(json.dumps(payload))
    code = main(["fuzz", "replay", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "is not a reproducer" in err
