#!/usr/bin/env python3
"""The repo's behaviour digests, from one command.

``repro fuzz`` and ``repro sim`` are byte-deterministic and so are the
WAL and checkpoint encodings, so a refactor is checked by hash, parent
versus change with the same interpreter:

``fuzz``         seeds 1-250, each ``execute_plan(generate_plan(s))``
                 report with oracle verdicts reduced to ``{name: ok}``
``scenarios``    the six shipped ``repro sim`` scenarios, ``details``
                 dropped from the per-epoch oracle verdicts
``sim_sweep``    the default ``hot_key_storm`` sweep (nodes 3,6 x
                 partition rates 0,0.3), bytes as ``repro sim sweep
                 --output`` writes them
``wal``          segment names + bytes left by the fixed in-process
                 script below
``checkpoints``  checkpoint names + bytes left by the same script
``wire.shardsN`` every reply and event frame's bytes, per connection in
                 arrival order, from the fixed socket session below
                 against an in-process durable server at ``shards=N``
                 (N = 1, 2)
``showdown_trace`` the JSONL that ``repro showdown --designers 10
                 --think 1 --seed 1 --trace FILE`` writes (the
                 korth-speegle run's spans, version selection included)

    PYTHONPATH=src python tools/digests.py                      # print
    PYTHONPATH=src python tools/digests.py --check tools/digests.json
    PYTHONPATH=src python tools/digests.py --write tools/digests.json

``--check`` exits non-zero on any mismatch.  The script uses only the
public manager surface, so it runs unchanged against an older checkout
(``PYTHONPATH=/path/to/parent/src``).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

FUZZ_SEEDS = range(1, 251)


def _sha(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def fuzz_digest() -> str:
    from repro.fuzz.plan import generate_plan
    from repro.fuzz.runner import execute_plan

    def reports():
        for seed in FUZZ_SEEDS:
            report = dict(execute_plan(generate_plan(seed)).report)
            report["oracles"] = {
                name: verdict["ok"]
                for name, verdict in report["oracles"].items()
            }
            yield json.dumps(report, sort_keys=True).encode()

    return _sha(reports())


def scenario_digest() -> str:
    from repro.des import SCENARIOS, get_scenario, run_scenario

    def reports():
        for name in sorted(SCENARIOS):
            report = run_scenario(get_scenario(name))
            for epoch in report["epochs"]:
                for verdict in epoch["oracles"].values():
                    verdict.pop("details", None)
            yield json.dumps(report, sort_keys=True).encode()

    return _sha(reports())


def sim_sweep_digest() -> str:
    from repro.des import get_scenario, run_sweep

    doc = run_sweep(get_scenario("hot_key_storm"))
    return _sha([(json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()])


def showdown_trace_digest() -> str:
    from repro.cli import main

    with tempfile.TemporaryDirectory(prefix="repro-digests-") as tmp:
        path = Path(tmp) / "trace.jsonl"
        argv = ["showdown", "--designers", "10", "--think", "1", "--seed", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--trace", str(path)]) == 0
        return _sha([path.read_bytes()])


# ---------------------------------------------------------------------------
# The fixed in-process script
# ---------------------------------------------------------------------------


def _database():
    from repro.core.entities import Domain, Entity, Schema
    from repro.core.predicates import Predicate
    from repro.storage.database import Database

    names = ("u", "v", "w", "x", "y", "z")
    schema = Schema([Entity(name, Domain(0, 1000)) for name in names])
    constraint = Predicate.parse(" & ".join(f"{n} >= 0" for n in names))
    return Database(schema, constraint, {name: 5 for name in names})


def _spec(input_text: str = "true", output_text: str = "true"):
    from repro.core.predicates import Predicate
    from repro.core.transactions import Spec

    return Spec(Predicate.parse(input_text), Predicate.parse(output_text))


def _shapes(tm) -> None:
    """One session per record kind the WAL carries a derived fact for."""
    root = tm.root
    # Figure-4 re-evaluation abort of a stale reader.
    pred = tm.define(root, _spec(), ["x"])
    succ = tm.define(root, _spec("x >= 0"), [], predecessors=[pred])
    tm.validate(pred)
    tm.validate(succ)
    tm.read(succ, "x")
    tm.write(pred, "x", 42)
    tm.commit(pred)
    # Re-assignment of a validated, not-yet-reading successor.
    writer = tm.define(root, _spec(), ["y"])
    waiter = tm.define(root, _spec("y >= 0"), ["z"], predecessors=[writer])
    tm.validate(writer)
    tm.validate(waiter)
    tm.write(writer, "y", 77)
    tm.read(waiter, "y")
    tm.write(waiter, "z", 9)
    # Abort cascade through a reads-from edge.
    tm.abort(writer)
    # Relative commit undone by a later predecessor, then re-committed.
    late = tm.define(root, _spec("u >= 0"), ["v"])
    tm.validate(late)
    tm.read(late, "u")
    tm.write(late, "v", 99)
    tm.commit(late)
    early = tm.define(
        root,
        _spec(),
        ["u"],
        successors=[late],
        undo_committed_successors=True,
    )
    tm.validate(early)
    tm.write(early, "u", 6)
    tm.commit(early)
    if tm.phase(late).value == "validated":
        tm.commit(late)
    # A nested parent with two live children, aborted as a subtree,
    # and one whose children commit relative to it.
    doomed = tm.define(root, _spec(), ["w"])
    tm.validate(doomed)
    for value in (1, 2):
        child = tm.define(doomed, _spec("w >= 0"), ["w"])
        tm.validate(child)
        tm.write(child, "w", value)
    tm.abort(doomed)
    nest = tm.define(root, _spec(), ["w"])
    tm.validate(nest)
    first = tm.define(nest, _spec("w >= 0"), ["w"])
    tm.validate(first)
    tm.read(first, "w")
    tm.write(first, "w", 11)
    tm.commit(first)
    second = tm.define(nest, _spec("w >= 0"), ["w"], predecessors=[first])
    tm.validate(second)
    tm.write(second, "w", 12)
    tm.commit(second)
    tm.commit(nest)
    # A 2PC promise that hears its decision.
    branch = tm.define(root, _spec("z >= 0"), ["z"])
    tm.validate(branch)
    tm.write(branch, "z", 13)
    tm.prepare(
        branch,
        {"gid": "g1", "participants": {"0": branch}, "coordinator": 0},
    )
    tm.commit(branch)


def _random_sessions(tm, rng: random.Random, rounds: int) -> None:
    """Seeded sessions over the root.

    Even rounds run each transaction to its last write as soon as it
    validates (the test-suite generator's shape); odd rounds validate
    all ten first, ordered after one committed writer of everything,
    and then interleave their shuffled accesses — which is what makes
    Figure-4 re-assignments and cascade re-selections common.
    """
    from repro.protocol.scheduler import Outcome, TxnPhase

    entities = tuple(tm.database.schema.names)
    for round_index in range(rounds):
        live: list[str] = []
        pending: list[tuple[str, str, str]] = []
        barrier: list[str] = []
        if round_index % 2:
            # Everyone in the round follows one committed writer of
            # every entity, so assigned versions have an *ordered*
            # author and a later predecessor's write supersedes them.
            barrier.append(tm.define(tm.root, _spec(), entities))
            tm.validate(barrier[0])
            for entity in entities:
                tm.write(barrier[0], entity, rng.randint(0, 1000))
            tm.commit(barrier[0])
        for __ in range(10):
            reads = rng.sample(entities, rng.randint(1, 3))
            writes = sorted(rng.sample(entities, rng.randint(0, 2)))
            predecessors = [
                p
                for p in ([rng.choice(live)] if live else [])
                if rng.random() < (0.7 if round_index % 2 else 0.4)
                and tm.phase(p) is not TxnPhase.ABORTED
            ]
            txn = tm.define(
                tm.root,
                _spec(" & ".join(f"{e} >= 0" for e in reads)),
                writes,
                predecessors=barrier + predecessors,
            )
            if tm.validate(txn).outcome is not Outcome.OK:
                continue
            live.append(txn)
            accesses = [(txn, "read", e) for e in reads]
            accesses += [(txn, "write", e) for e in writes]
            if round_index % 2:
                rng.shuffle(accesses)
                pending.extend(accesses)
                continue
            for access in accesses:
                _access(tm, rng, *access)
            if rng.random() < 0.5 and tm.phase(txn) is TxnPhase.VALIDATED:
                tm.commit(txn)
        queues = {txn: [a for a in pending if a[0] == txn] for txn in live}
        while any(queues.values()):
            txn = rng.choice([t for t, queue in queues.items() if queue])
            _access(tm, rng, *queues[txn].pop(0))
        for txn in live:
            if tm.phase(txn) is TxnPhase.VALIDATED:
                if rng.random() < 0.15:
                    tm.abort(txn)
                elif tm.commit(txn).outcome is not Outcome.OK:
                    tm.abort(txn)


def _access(tm, rng: random.Random, txn: str, kind: str, entity: str) -> None:
    if tm.phase(txn).value != "validated":
        return
    if kind == "read":
        tm.read(txn, entity)
    else:
        tm.write(txn, entity, rng.randint(0, 1000))


def run_fixed_script(wal_dir: Path) -> None:
    """Drive one durable manager through the fixed script, then
    abandon it, re-open the directory and run a second, shorter leg —
    so the bytes also cover recovery's re-anchoring checkpoint."""
    from repro.durability import DurableTransactionManager

    rng = random.Random(11)
    tm, _ = DurableTransactionManager.open(
        wal_dir,
        _database,
        segment_bytes=16384,
        checkpoint_every=400,
        retain=1000,
    )
    _shapes(tm)
    _random_sessions(tm, rng, rounds=30)
    in_flight = tm.define(tm.root, _spec("x >= 0"), ["x"])
    tm.validate(in_flight)
    tm.write(in_flight, "x", 1)
    tm.flush()
    tm.wal.close()  # abandoned: no closing checkpoint
    tm, recovery = DurableTransactionManager.open(
        wal_dir,
        segment_bytes=16384,
        checkpoint_every=400,
        retain=1000,
    )
    assert recovery is not None and recovery.verified
    _random_sessions(tm, rng, rounds=5)
    tm.close()


def disk_digests() -> tuple[str, str]:
    from repro.durability.snapshot import CheckpointStore
    from repro.durability.wal import list_segments

    with tempfile.TemporaryDirectory(prefix="repro-digests-") as tmp:
        wal_dir = Path(tmp) / "wal"
        run_fixed_script(wal_dir)

        def files(paths):
            for path in paths:
                yield path.name.encode()
                yield path.read_bytes()

        return (
            _sha(files(list_segments(wal_dir))),
            _sha(files(CheckpointStore(wal_dir, retain=1000).checkpoints())),
        )


# ---------------------------------------------------------------------------
# The fixed socket session
# ---------------------------------------------------------------------------

#: Two modules whose affinity keys hash to different shards at
#: ``shards=2`` (``m3`` -> 1, ``m4`` -> 0).
WIRE_ENTITIES = ("m3_e0", "m3_e1", "m4_e0", "m4_e1")


class _Wire:
    """One raw connection: hand-written request lines out, every
    received line kept as it arrived (replies and events alike)."""

    def __init__(self, reader, writer) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._replies: dict[int, dict] = {}
        self.frames: list[bytes] = []

    @classmethod
    async def open(cls, port: int) -> "_Wire":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    def send(self, op, **params) -> int:
        request_id = next(self._ids)
        frame = {"id": request_id, "op": op, **params}
        self._writer.write(json.dumps(frame).encode() + b"\n")
        return request_id

    async def reply(self, request_id: int) -> dict:
        while request_id not in self._replies:
            line = await self._reader.readline()
            assert line, "server closed the connection mid-script"
            self.frames.append(line)
            frame = json.loads(line)
            if "id" in frame:
                self._replies[frame["id"]] = frame
        return self._replies.pop(request_id)

    async def call(self, op, **params) -> dict:
        return await self.reply(self.send(op, **params))

    async def txn(self, **define) -> str:
        """Define and validate one transaction; returns its name."""
        name = (await self.call("define", **define))["txn"]
        await self.call("validate", txn=name)
        return name

    async def close(self) -> None:
        self._writer.close()
        await self._writer.wait_closed()


async def _wire_session(a: _Wire, b: _Wire) -> None:
    """The script: one well-formed lifecycle per server path, then one
    single-fault malformed request per parameter kind.  Every request
    is answered before the next is sent (but for the parked commit), so
    each connection's frame order is fixed."""
    e0, e1, f0, f1 = WIRE_ENTITIES
    await a.call("hello")
    await a.call("ping")
    # Single-shard lifecycle, every data op.
    t = await a.txn(updates=[e0, e1], input=f"{e0} >= 0", output=f"{e0} >= 2")
    await a.call("read", txn=t, entity=e0)
    await a.call("begin_write", txn=t, entity=e0)
    await a.call("end_write", txn=t, entity=e0, value=2)
    await a.call("write", txn=t, entity=e1, value=3)
    await a.call("view", txn=t)
    await a.call("commit", txn=t)
    # A nested child committing relative to its parent.
    parent = await a.txn(updates=[e1])
    child = await a.txn(updates=[e1], parent=parent)
    await a.call("write", txn=child, entity=e1, value=4)
    await a.call("commit", txn=child)
    await a.call("commit", txn=parent)
    # Cross-shard lifecycle: branches on both shards, 2PC commit.
    cross = await a.txn(
        updates=[e0, f0], input=f"{e0} >= 0 & {f0} >= 0", output=f"{f0} >= 0"
    )
    await a.call("read", txn=cross, entity=f0)
    await a.call("write", txn=cross, entity=e0, value=5)
    await a.call("write", txn=cross, entity=f0, value=6)
    await a.call("view", txn=cross)
    await a.call("commit", txn=cross)
    # ... and a cross-shard abort.
    cross = await a.txn(updates=[e1, f1])
    await a.call("write", txn=cross, entity=f1, value=7)
    await a.call("abort", txn=cross, reason="changed my mind")
    # A commit parked on its predecessor, resumed by that commit.
    first = await a.txn(updates=[f0])
    second = await b.txn(updates=[f1], predecessors=[first])
    await b.call("write", txn=second, entity=f1, value=8)
    parked = b.send("commit", txn=second)
    await b.call("view", txn=second)  # same queue: the commit is parked
    await a.call("write", txn=first, entity=f0, value=9)
    await a.call("commit", txn=first)
    await b.reply(parked)
    # A nested cross-shard child: committed branch by branch, no 2PC.
    parent = await a.txn(updates=[e1, f1])
    child = await a.txn(updates=[e1, f1], parent=parent)
    await a.call("write", txn=child, entity=e1, value=10)
    await a.call("write", txn=child, entity=f1, value=11)
    await a.call("commit", txn=child)
    await a.call("commit", txn=parent)
    # Cascade aborts: b read a's uncommitted write and hears an event,
    # once as a single-shard reader and once as a cross-shard one.
    for reader_input in (f"{e0} >= 40", f"{e0} >= 40 & {f0} >= 0"):
        writer = await a.txn(updates=[e0])
        await a.call("write", txn=writer, entity=e0, value=50)
        reader = await b.txn(input=reader_input)
        await b.call("read", txn=reader, entity=e0)
        await a.call("abort", txn=writer)
        await b.call("ping")
    await b.call("read", txn=reader, entity=f0)  # forgotten by now
    # Lifecycle failures, single-shard and cross-shard.
    for also in ("", f" & {f0} >= 0"):
        doomed = await a.call("define", input=f"{e0} >= 500{also}")
        await a.call("validate", txn=doomed["txn"])
        unmet = await a.txn(updates=[e0], output=f"{e0} >= 90{also}")
        await a.call("commit", txn=unmet)
    unmet = await a.txn(updates=[e0], output=f"{e0} >= 90")
    await a.call("commit", txn=unmet)
    await b.call("read", txn=unmet, entity=e0)  # not the owner
    await a.call("read", txn="nope", entity=e0)
    await a.call("read", txn=unmet, entity="nope")
    await a.call("abort", txn=unmet)
    # Replication ops (refused by a sharded front) and a direct prepare.
    await a.call("follower_read")
    await a.call("follower_read", entity=e0, max_lag_lsn=0)
    await a.call("repl_status")
    await a.call("promote")
    live = await a.txn()
    await a.call(
        "prepare", txn=live, gid="g", participants={"0": live}, coordinator=0
    )
    await a.call("commit", txn=live)
    # One malformed request per parameter kind, on a live owned txn.
    live = await a.txn(updates=[e0])
    await a.call("bogus")
    await a.call("validate")
    await a.call("read", txn=5, entity=e0)
    await a.call("read", txn=live)
    await a.call("read", txn=live, entity="")
    await a.call("write", txn=live, entity=e0, value="7")
    await a.call("write", txn=live, entity=e0, value=True)
    await a.call("abort", txn=live, reason=5)
    await a.call("define", parent=5)
    await a.call("define", input=5)
    await a.call("define", output=f"{e0} >=")
    await a.call("define", updates=e0)
    await a.call("define", updates=[e0, 5])
    await a.call("follower_read", entity=5)
    await a.call("follower_read", max_lag_lsn="1")
    await a.call("prepare", txn=live, gid="g", participants=[], coordinator=0)
    await a.call("prepare", txn=live, gid="g", participants={}, coordinator="0")
    # Last: a sharded front once accepted this and defined a
    # transaction, which would rename everything after it.
    await a.call("define", predecessors="ab")


async def _wire_frames(shards: int, wal_dir: Path) -> list[bytes]:
    from repro.core.entities import Domain, Schema
    from repro.core.predicates import Predicate
    from repro.server import ServerConfig, TransactionServer
    from repro.storage.database import Database

    schema = Schema.of(*WIRE_ENTITIES, domain=Domain.interval(0, 100))
    constraint = Predicate.parse(
        " & ".join(f"{name} >= 0" for name in WIRE_ENTITIES)
    )
    server = TransactionServer(
        Database(schema, constraint, {name: 1 for name in WIRE_ENTITIES}),
        ServerConfig(port=0, shards=shards, wal_dir=str(wal_dir)),
    )
    await server.start()
    try:
        a = await _Wire.open(server.port)
        b = await _Wire.open(server.port)
        await _wire_session(a, b)
        await a.close()
        await b.close()
    finally:
        await server.shutdown()
    return a.frames + b.frames


def wire_frames(shards: int) -> list[bytes]:
    with tempfile.TemporaryDirectory(prefix="repro-digests-") as tmp:
        return asyncio.run(_wire_frames(shards, Path(tmp) / "wal"))


def compute() -> dict[str, str]:
    wal, checkpoints = disk_digests()
    return {
        "fuzz": fuzz_digest(),
        "scenarios": scenario_digest(),
        "sim_sweep": sim_sweep_digest(),
        "wal": wal,
        "checkpoints": checkpoints,
        "wire.shards1": _sha(wire_frames(1)),
        "wire.shards2": _sha(wire_frames(2)),
        "showdown_trace": showdown_trace_digest(),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="JSON")
    parser.add_argument("--write", metavar="JSON")
    args = parser.parse_args(argv)
    digests = compute()
    for name, value in digests.items():
        print(f"{name:16s}{value}")
    if args.write:
        Path(args.write).write_text(
            json.dumps(digests, indent=2) + "\n", encoding="utf-8"
        )
    if args.check:
        expected = json.loads(Path(args.check).read_text(encoding="utf-8"))
        bad = [
            f"{name}: expected {expected.get(name)} got {value}"
            for name, value in digests.items()
            if expected.get(name) != value
        ]
        for line in bad:
            print("MISMATCH " + line, file=sys.stderr)
        return 1 if bad else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
