#!/usr/bin/env python3
"""Crash recovery from the write-ahead log (the paper's §6 future work).

A session of cooperating transactions runs under the Section-5
protocol on a :class:`DurableTransactionManager`, which appends one
logical WAL record per state transition.  Then we simulate a crash —
abandon the manager without closing it — and rebuild the state with
``recover(verify=True)``: checkpoint + WAL replay + undo of whatever
was in flight, followed by independent verification that the result is
a correct committed prefix.

Derived decisions (re-assignments, cascades) are logged as facts, so
replay is pure state transcription and the committed work comes back
bit for bit; the transaction caught mid-flight does not.

Run:  python examples/crash_recovery.py
"""

import tempfile
from pathlib import Path

from repro.core import Domain, Predicate, Schema, Spec
from repro.durability import DurableTransactionManager, recover
from repro.durability.wal import scan_wal
from repro.protocol import TxnPhase
from repro.storage import Database


def fresh_database() -> Database:
    schema = Schema.of("x", "y", "z", domain=Domain.interval(0, 1000))
    return Database(
        schema,
        Predicate.parse("x >= 0 & y >= 0 & z >= 0"),
        {"x": 10, "y": 20, "z": 30},
    )


def run_session(wal_dir: Path) -> DurableTransactionManager:
    tm, recovery = DurableTransactionManager.open(wal_dir, fresh_database)
    assert recovery is None  # a fresh directory: nothing to recover

    def spec(i="true", o="true"):
        return Spec(Predicate.parse(i), Predicate.parse(o))

    alice = tm.define(tm.root, spec("x >= 0"), {"x"})
    bob = tm.define(
        tm.root, spec("x >= 0 & y >= 0"), {"y"}, predecessors=[alice]
    )
    eve = tm.define(tm.root, spec("z >= 0"), {"z"})
    for txn in (alice, bob, eve):
        tm.validate(txn)
    tm.read(alice, "x")
    tm.write(alice, "x", 42)  # re-assigns Bob to the new version
    tm.commit(alice)
    tm.read(bob, "x")
    tm.read(bob, "y")
    tm.write(bob, "y", 77)
    tm.commit(bob)
    tm.read(eve, "z")
    tm.write(eve, "z", 99)  # Eve is still working when the crash hits
    tm.flush()
    return tm


def committed_versions(manager) -> dict[str, list[tuple[int, str | None]]]:
    committed = {
        record.name
        for record in manager.iter_records()
        if record.phase is TxnPhase.COMMITTED
    }
    return {
        entity: [
            (v.value, v.author)
            for v in manager.database.store.versions(entity)
            if v.author is None or v.author in committed
        ]
        for entity in manager.database.schema.names
    }


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
        wal_dir = Path(tmp) / "wal"
        print("=== Running the original session ===")
        original = run_session(wal_dir)
        records = scan_wal(wal_dir).records
        print(f"WAL records: {len(records)}")
        print("world view before the crash:", original.view(original.root))
        print()

        print("=== Durable log (excerpt) ===")
        for record in records[:4]:
            print(" ", record.encode().decode().rstrip())
        print("  …")
        print()

        print("=== 💥 crash — manager abandoned; recovering the WAL ===")
        result = recover(wal_dir, verify=True)
        rebuilt = result.manager
        print("verified:", result.verified, result.violations)
        print("committed:", result.committed)
        print("aborted in flight:", result.undo.aborted_in_flight)
        print("recovered world view:", rebuilt.view(rebuilt.root))
        assert result.verified
        assert result.committed == ["t.0", "t.1"]
        assert result.undo.aborted_in_flight == ["t.2"]
        assert rebuilt.view(rebuilt.root) == {"x": 42, "y": 77, "z": 30}
        match = committed_versions(original) == committed_versions(rebuilt)
        print("committed version histories identical:", match)
        assert match
        print()
        print("recovered store:")
        for entity in rebuilt.database.schema.names:
            versions = rebuilt.database.store.versions(entity)
            print(f"  {entity}: " + " -> ".join(str(v) for v in versions))
        original.wal.close()


if __name__ == "__main__":
    main()
