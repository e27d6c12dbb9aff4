"""How ``parent_wal/`` was written (kept for the record, not run by tests).

Run once, at commit 7974697 (the last one with two transition
functions), as

    PYTHONPATH=src:tools python tests/durability/fixtures/write_parent_wal.py

The directory it leaves is what an old server's disk looks like after a
kill: two checkpoints, seven WAL segments covering every record kind,
one transaction in flight and one 2PC branch in doubt.  ``expected.json``
is what that commit's ``recover(verify=True)`` and
``FollowerApplier.load_existing`` made of it.
"""

import json
import random
import shutil
import tempfile
from pathlib import Path

import digests  # tools/digests.py: the fixed script's building blocks

from repro.durability import DurableTransactionManager, recover
from repro.replication.follower import FollowerApplier

HERE = Path(__file__).resolve().parent
TARGET = HERE / "parent_wal"


def main() -> None:
    if TARGET.exists():
        shutil.rmtree(TARGET)
    tm, _ = DurableTransactionManager.open(
        TARGET, digests._database, segment_bytes=4096
    )
    digests._shapes(tm)
    tm.checkpoint()
    digests._random_sessions(tm, random.Random(3), rounds=2)
    in_flight = tm.define(tm.root, digests._spec("x >= 0"), ["x"])
    tm.validate(in_flight)
    tm.write(in_flight, "x", 1)
    in_doubt = tm.define(tm.root, digests._spec("y >= 0"), ["y"])
    tm.validate(in_doubt)
    tm.write(in_doubt, "y", 2)
    tm.prepare(
        in_doubt,
        {"gid": "g2", "participants": {"0": in_doubt}, "coordinator": 0},
    )
    tm.flush()
    tm.wal.close()  # abandoned: no closing checkpoint

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "recover"
        shutil.copytree(TARGET, copy)
        result = recover(copy, verify=True)
        assert result.verified, result.violations
        copy = Path(tmp) / "follow"
        shutil.copytree(TARGET, copy)
        applier = FollowerApplier(copy)
        applied_lsn, follower_view = applier.read_view()
        applier.close()
    expected = {
        "recover": {
            "committed": result.committed,
            "root_view": result.manager.view(result.manager.root),
            "records_replayed": result.records_replayed,
            "aborted_in_flight": result.undo.aborted_in_flight,
        },
        "follower": {
            "applied_lsn": applied_lsn,
            "read_view": follower_view,
        },
    }
    (HERE / "parent_wal.expected.json").write_text(
        json.dumps(expected, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
