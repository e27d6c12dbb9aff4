"""Reproducer files written by an earlier build still replay the same.

The fixtures were saved with ``save_reproducer`` from corpus seeds 4
(replicated, a partition window, a crash point) and 40 (sharded, a
crash point), and from the shrunk plans of seeds 1109 (sync-replicated,
a partition window) and 1219 (durable): in both a commit parks behind
its predecessor's, and the predecessor's commit must be acked first.
Each ``.sha256`` holds the hash of the report its plan produced then,
oracle verdicts reduced to ``{name: ok}`` as ``tools/digests.py``
reduces them.  The whole path file → plan → run is pinned, not just
``generate_plan`` → run.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.fuzz import execute_plan, load_reproducer

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "path", sorted(FIXTURES.glob("repro-seed-*.json")), ids=lambda p: p.stem
)
def test_reproducer_replays_to_its_recorded_report(path):
    plan, expected = load_reproducer(path)
    assert expected == []
    report = dict(execute_plan(plan).report)
    assert report["ok"]
    assert report["crashed"] == (plan.crash_point is not None)
    report["oracles"] = {
        name: verdict["ok"] for name, verdict in report["oracles"].items()
    }
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    recorded = path.with_name(path.name + ".sha256").read_text().strip()
    assert digest == recorded
